(** The simulator's retired list-based first-fit pass, retained as the
    executable specification for differential testing of
    {!Cocheck_sim.Submit_queue}.

    The submission queue was a list in priority order, with requeues
    consed onto its head. A pass started every entry that fit the free
    nodes, in list order. Test-only; production code must use
    {!Cocheck_sim.Submit_queue}. *)

type 'a t

val create : nodes:('a -> int) -> 'a list -> 'a t
(** The queue holding the list's entries, head first. *)

val push_front : 'a t -> 'a -> unit
(** Queue an entry at the head. *)

val first_fit : 'a t -> free:int ref -> start:('a -> unit) -> unit
(** The greedy first-fit pass: remove and [start] every entry that fits
    the [free] node count at its turn, taking its nodes off [free]. *)

val length : 'a t -> int
