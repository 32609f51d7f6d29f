(** A fixed-size pool of worker domains with a shared FIFO task queue.

    Monte Carlo replication is embarrassingly parallel: thousands of
    independent simulations per configuration. The sealed container has no
    domainslib, so this is a small hand-rolled pool over [Domain.t] with a
    [Mutex]/[Condition]-protected queue.

    Determinism note: tasks must not share mutable state; each simulation
    derives its randomness from [(seed, replication index)], so results are
    identical whatever the domain interleaving. *)

type t

type telemetry = {
  on_task : worker:int -> queued_s:float -> ran_s:float -> unit;
      (** After every completed task (exceptional or not): which worker ran
          it, how long it sat in the queue, how long it ran. *)
  on_idle : worker:int -> idle_s:float -> unit;
      (** After every dequeue attempt: how long the worker spent holding no
          task (blocked on the condition variable or winning it
          immediately). Includes the final wait that observes shutdown. *)
}
(** Observation hooks, called on the {e worker's} domain — implementations
    must be thread-safe. The tracing layer turns them into per-domain
    busy/idle lanes ([Cocheck_obs.Tracing.pool_telemetry]). *)

val no_telemetry : telemetry
(** The sentinel default. When a pool is created with it (physical
    equality), submission and the worker loop take exactly the
    pre-telemetry code path: no timestamps, no wrapping closure. *)

val create : ?num_domains:int -> ?telemetry:telemetry -> unit -> t
(** [create ~num_domains ()] spawns that many worker domains (default
    [Domain.recommended_domain_count () - 1], at least 1).
    [num_domains = 0] builds a {e sequential} pool: every submission runs
    inline on the caller, which is useful for reproducible unit tests and
    for nesting (pools must not be used from inside their own tasks).
    An observed sequential pool reports every task on worker 0, in
    submission order — deterministic lanes for tests. *)

val num_workers : t -> int
(** Worker domain count; [0] for a sequential pool. *)

val current_worker : unit -> int
(** The index of the pool worker running the calling task, [0] outside any
    worker (and for a sequential pool's inline tasks) — the lane id a task
    should tag its own trace spans with. *)

type tenant
(** A fair-queueing principal. Tasks of one tenant run in FIFO order among
    themselves; dispatch round-robins one task at a time across the
    tenants that currently have queued work, so no tenant waits behind
    another's whole backlog — a client submitting one cell is served after
    at most one task per competing tenant, not after a 256-cell sweep.
    Tasks submitted without a tenant share the pool's default tenant,
    which preserves the pre-tenant global FIFO behaviour. *)

val tenant : t -> tenant
(** A fresh tenant for [t]. Cheap; one per service client connection.
    Tenants need no unregistration — an empty tenant holds no pool
    resources and is garbage once dropped. *)

type 'a future

val async : ?tenant:tenant -> t -> (unit -> 'a) -> 'a future
(** Submit a task; returns immediately (sequential pools run it inline).
    [tenant] selects the fair-queueing principal (default: the pool's
    shared default tenant). *)

val await : 'a future -> 'a
(** Block until the task finishes. Re-raises the task's exception, if any.
    May be called at most once per future from one caller. *)

val init_array : ?tenant:tenant -> t -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init], preserving order. The exception of the
    lowest-index failing task is re-raised. *)

val shutdown : t -> unit
(** Join all workers. Outstanding tasks are completed first. Idempotent.
    Submitting after shutdown raises [Invalid_argument]. *)

val with_pool : ?num_domains:int -> ?telemetry:telemetry -> (t -> 'a) -> 'a
(** Create, run, and always shut the pool down. *)
