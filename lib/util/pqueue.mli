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
    recycled slot), so [add]/[drop_min]/[update_priority] allocate nothing
    and store no heap pointer. The sifts are inlined loops: a priority handed
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
    dead (dropped or removed); {!mem} is the liveness test. *)

val add : t -> priority:float -> int -> handle
(** Insert under the next sequence number with tag [0]; the handle stays
    valid until the element is dropped or removed. *)

val take_seq : t -> int
(** Draw the sequence number the next {!add} would get: numbers are
    handed out in increasing order, shared with {!add}, so an entry
    inserted later under a number drawn now ranks among equal priorities
    exactly as if it had been added now. *)

val add_seq : t -> priority:float -> seq:int -> tag:int -> int -> handle
(** Insert under a sequence number drawn earlier by {!take_seq}, with a
    small integer tag carried alongside the payload and read back by
    {!min_tag} and {!tag_of} — the discrete-event engine uses it to
    attribute fired and cancelled events to a kind. *)

(** {2 Root access}

    The root — the smallest priority, FIFO among ties — is read piecewise
    and then dropped, so taking it allocates nothing. All four raise
    [Invalid_argument] on an empty queue — guard with {!is_empty}. *)

val min_priority : t -> float
val min_tag : t -> int
val min_value : t -> int

val drop_min : t -> unit
(** Remove the root ({!min_priority}'s entry) without returning it. *)

val remove : t -> handle -> bool
(** [remove t h] cancels the entry behind [h]. Returns [false] when the
    entry already left the heap (dropped or removed); idempotent. *)

val mem : t -> handle -> bool
(** Whether the handle still designates a live entry. *)

val priority_is : t -> handle -> float -> bool
(** [priority_is t h p]: whether the entry behind [h] is live at priority
    exactly [p]; [false] for dead handles. Allocates nothing. *)

val tag_of : t -> handle -> int option
(** The tag behind a live handle ([0] unless inserted by {!add_seq}). *)

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
