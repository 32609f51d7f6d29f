(** Figure 3: minimum aggregate filesystem bandwidth needed to sustain 80 %
    platform efficiency on the prospective system (50 000 nodes, 7 PB
    memory), as a function of node MTBF, for the seven strategies and the
    theoretical model.

    Each point is a log-space bisection over bandwidth; every Monte Carlo
    probe replicates [reps] simulations, so this is by far the most
    expensive experiment — the defaults are deliberately modest. *)

val probe : Spec.t
(** The per-probe preset: one unswept cell of the prospective system
    under its scaled APEX mix, Least-Waste, 5 replications, seed 42,
    20-day segments. Each bisection step of {!min_bandwidth} runs it with
    the probed bandwidth and MTBF, the searched strategy and the caller's
    replication protocol. *)

val min_bandwidth_theoretical :
  node_mtbf_years:float -> target_efficiency:float -> unit -> float
(** Smallest bandwidth (GB/s) at which the Theorem 1 bound ({!Runner.bound}
    at the probe's class mix) allows the target efficiency on the
    prospective system. *)

val min_bandwidth :
  pool:Cocheck_parallel.Pool.t ->
  strategy:Cocheck_core.Strategy.t ->
  node_mtbf_years:float ->
  target_efficiency:float ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  ?iters:int ->
  unit ->
  float
(** Simulated search for one strategy/MTBF point (GB/s): a log-space
    bisection of [iters] (default 9) steps, each a {!probe} campaign.
    [reps], [seed] and [days] default to the probe's. *)

val run :
  pool:Cocheck_parallel.Pool.t -> ?reps:int -> ?seed:int -> ?days:float -> ?iters:int -> unit ->
  Figures.t
(** The paper's figure: node MTBF 5, 10, 15, 20 and 25 years, 80 % target,
    the seven strategies and the theoretical model. [reps], [seed], [days]
    and [iters] default to {!min_bandwidth}'s. The y values are reported
    in TB/s like the paper's axis. *)
