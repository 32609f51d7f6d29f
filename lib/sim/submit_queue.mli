(** The submission queue: entries waiting for nodes, in priority order,
    served first-fit (Section 6: the machine is space-shared first-fit,
    and a failed job goes back to the head of the queue).

    Every entry carries a priority key. The initial entries get ascending
    keys in array order; each {!push_front} gets a key below every key
    issued so far. Entries are kept on one stack per distinct node count,
    smallest key on top, so a first-fit step costs O(distinct node counts)
    instead of a walk over the whole queue. *)

type 'a t

val of_array : nodes:('a -> int) -> 'a array -> 'a t
(** The queue holding the array's entries, element 0 first. [nodes] gives
    the node count an entry needs; it is read once per entry, when the
    entry is queued. *)

val push_front : 'a t -> 'a -> unit
(** Queue an entry ahead of every entry queued so far (a requeue after a
    failure). *)

val pop_first_fit : 'a t -> free:int -> 'a option
(** Remove and return the highest-priority entry that needs at most [free]
    nodes, or [None] when no queued entry fits.

    Repeated while [free] only shrinks, this is the greedy first-fit pass
    over the queue in priority order: the top of a stack fits whenever any
    entry of that stack does, and an entry that did not fit earlier in the
    pass cannot fit later in it. *)

val length : 'a t -> int
(** Queued entries, in O(1). *)
