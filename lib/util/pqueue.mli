(** Growable binary min-heap of integer payloads with stable handles.

    The discrete-event calendar needs three operations fast: insert, extract
    the minimum, and cancel an arbitrary pending entry (a checkpoint
    completion superseded by a failure, an I/O completion superseded by a
    bandwidth change). Handles give O(log n) removal without scanning.

    Ordering is by [priority] (a float, e.g. simulation time) with an integer
    sequence number breaking ties FIFO, so equal-time events pop in insertion
    order — a requirement for deterministic simulation.

    An entry carries two integers: its payload (the engine's source id, the
    flow scheduler's slot) and a small tag. The layout is struct-of-arrays:
    priorities live in a flat [float array], everything else in
    [int array]s, and a handle is a single tagged integer (generation +
    recycled slot), so [add]/[pop]/[update_priority] allocate nothing and
    store no heap pointer. The sifts are inlined loops: a priority handed
    to {!add_seq} or {!update_seq} by an inlining caller is never boxed. *)

type t

type handle [@@immediate]
(** A recycled integer slot tagged with a generation: immediate (no heap
    block, and an [handle array] store is a plain word write), and stale
    handles never alias a slot's next tenant. *)

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val null_handle : handle
(** A handle that is never live ({!mem} is [false], {!remove} is a no-op);
    the idiomatic "no event" sentinel where an [option] wrapper would cost
    an allocation per store. *)

val is_null : handle -> bool
(** Whether the handle is {!null_handle}. A non-null handle may still be
    dead (popped or removed); {!mem} is the liveness test. *)

val add : t -> priority:float -> int -> handle
(** Insert; the handle stays valid until the element is popped or removed.
    Equivalent to {!add_tagged} with [tag = 0]. *)

val add_tagged : t -> priority:float -> tag:int -> int -> handle
(** Insert with a small integer tag carried alongside the payload, read
    back by {!pop_tagged}, {!min_tag} and {!tag_of} — the discrete-event
    engine uses it to attribute fired and cancelled events to a kind. *)

val take_seq : t -> int
(** Draw the sequence number the next {!add} would get: numbers are
    handed out in increasing order, shared with {!add}, so an entry
    inserted later under a number drawn now ranks among equal priorities
    exactly as if it had been added now. *)

val add_seq : t -> priority:float -> seq:int -> tag:int -> int -> handle
(** {!add_tagged} under a sequence number drawn earlier by {!take_seq}. *)

val pop : t -> (float * int) option
(** Remove and return the smallest-priority element (FIFO among ties). *)

val pop_tagged : t -> (float * int * int) option
(** {!pop}, also returning the entry's tag: [(priority, tag, payload)]. *)

val peek : t -> (float * int) option

(** {2 Allocation-free root access}

    [pop]/[peek] box an option and a tuple per call; the discrete-event
    loop instead reads the root piecewise and then drops it, allocating
    nothing. All four raise [Invalid_argument] on an empty queue — guard
    with {!is_empty}. *)

val min_priority : t -> float
val min_tag : t -> int
val min_value : t -> int

val drop_min : t -> unit
(** Remove the root ({!min_priority}'s entry) without returning it. *)

val remove : t -> handle -> bool
(** [remove t h] cancels the entry behind [h]. Returns [false] when the
    entry already left the heap (popped or removed); idempotent. *)

val mem : t -> handle -> bool
(** Whether the handle still designates a live entry. *)

val priority_of : t -> handle -> float option
(** The current priority behind a live handle. *)

val priority_is : t -> handle -> float -> bool
(** [priority_is t h p] is [priority_of t h = Some p] without the option
    and boxed-float allocation; [false] for dead handles. *)

val tag_of : t -> handle -> int option
(** The tag behind a live handle ([0] unless inserted by {!add_tagged}). *)

val value_of : t -> handle -> int
(** The payload behind a live handle; raises [Invalid_argument] on a dead
    one. *)

val update_priority : t -> handle -> priority:float -> bool
(** [update_priority t h ~priority] moves the entry behind [h] to a new
    priority in O(log n), keeping the handle valid and preserving the
    entry's sequence number (its FIFO rank among equal priorities).
    Returns [false] when the entry already left the heap; idempotent.
    The single-completion-event I/O calendar reschedules through this
    instead of a cancel + re-insert pair. *)

val update_seq : t -> handle -> priority:float -> seq:int -> bool
(** {!update_priority} that also gives the entry a new sequence number
    (drawn by {!take_seq}): the handle stays valid and now ranks as the
    entry added under [seq] would. [false] when the entry already left
    the heap. *)

val clear : t -> unit

val to_sorted_list : t -> (float * int) list
(** Non-destructive snapshot in pop order; O(n log n), for tests. *)
