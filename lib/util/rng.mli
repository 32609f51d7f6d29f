(** Deterministic, splittable pseudo-random number generation.

    Monte Carlo experiments need every stochastic choice to be reproducible
    for a given [(seed, replication)] pair, independently of how work is
    distributed over domains. This module provides an explicit-state
    xoshiro256++ generator seeded through SplitMix64, with named substreams
    so that independent parts of a simulation (job durations, failure times,
    shuffles, ...) draw from independent generators. *)

type t
(** Mutable generator state. Not thread-safe: each domain or logical stream
    must own its instance. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Equal seeds yield
    identical streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. The two
    streams are statistically independent. *)

val substream : t -> string -> t
(** [substream t name] derives a generator deterministically from [t]'s
    {e seed} and [name], without advancing [t]. Calling it twice with the
    same name yields identical streams, so components can re-derive their
    stream without coordination. *)

val copy : t -> t
(** Duplicate the full current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] draws uniformly in [\[0, n)]. Requires [n > 0]. Rejection
    sampling: unbiased. *)

val float : t -> float -> float
(** [float t x] draws uniformly in [\[0, x)], using 53 bits of precision. *)

val unit_float : t -> float
(** Uniform draw in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
