(** Wall-clock phase timing for simulator runs and bench campaigns.

    A timer accumulates named phases (a phase timed several times sums its
    durations and counts its calls) in insertion order and serializes
    them into run manifests. Replaces ad-hoc [Unix.gettimeofday]
    bracketing. *)

type t

val create : unit -> t

val time : t -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk, crediting its wall-clock duration to phase [name].
    Re-raises any exception after recording the elapsed time. *)

val record : t -> name:string -> seconds:float -> unit
(** Credit an externally measured duration. *)

val phases : t -> (string * float * int) list
(** [(name, total_seconds, calls)] in first-recorded order. *)

val total_s : t -> float

val to_json : t -> Json.t
(** [{"phases": [{"name", "seconds", "calls"}...], "total_s"}] *)
