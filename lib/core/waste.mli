(** Analytic waste expressions of Section 4.

    Waste is a fraction of wall time: of the time a job (or the platform)
    is enrolled, the share spent on resilience operations — checkpoints,
    and after each failure, recovery plus lost-work re-execution — rather
    than on useful work. Efficiency is [1 − waste].

    Equation (3) ({!job_waste}) is the first-order expansion of that
    fraction, and {!platform_waste} and the Theorem 1 bound inherit its
    meaning. Resilience time over useful time is a different quantity,
    [W / (1 − W)], equal to the fraction only to first order. The
    simulator measures the fraction: [Cocheck_sim.Simulator.waste_ratio]
    divides wasted node-seconds by the useful node-seconds of a
    failure-free, checkpoint-free Baseline run, which are its enrolled
    node-seconds.

    Example: one class, [C = R = 179 s], [µ_i = 35 259 s], period
    [P = √(2 µ_i C)], exponential failures. The exact time fraction is
    0.1020, Equation (3) gives 0.1058, and resilience over useful time is
    0.1136. *)

val job_waste : ckpt_s:float -> period_s:float -> recovery_s:float -> mtbf_s:float -> float
(** Equation (3) in per-job-MTBF form:
    [W_i = C/P + (P/2 + R)/µ_i] where [µ_i] is the MTBF seen by the job.
    Requires positive [period_s] and [mtbf_s], non-negative [ckpt_s] and
    [recovery_s]. *)

type class_load = {
  n : float;
      (** n_i: concurrent jobs of the class. Fractional values express
          steady-state averages (a class holding 66 % of the nodes with
          2048-node jobs runs 5.76 jobs on average) *)
  q : int;  (** q_i: nodes per job *)
  ckpt_s : float;  (** C_i at the bandwidth available for CR *)
  recovery_s : float;  (** R_i *)
}
(** Steady-state description of one application class, the input shared by
    the platform waste and the lower bound of Theorem 1. *)

val platform_waste :
  classes:class_load list ->
  periods:float list ->
  total_nodes:int ->
  node_mtbf_s:float ->
  float
(** Equation (4)/(7): node-weighted mean of the per-class wastes,
    [W = Σ (n_i q_i / N) · W_i], at the given checkpoint periods. The two
    lists must have equal length. *)

val io_fraction : classes:class_load list -> periods:float list -> float
(** Equation (6) left-hand side: [F = Σ n_i C_i / P_i], the fraction of time
    the I/O subsystem is busy with checkpoints when they never overlap.
    Feasibility requires [F <= 1]. *)

val of_model :
  classes:(float * Cocheck_model.App_class.t) list ->
  platform:Cocheck_model.Platform.t ->
  avail_bandwidth_gbs:float ->
  class_load list
(** Build steady-state loads from [(n_i, class)] pairs, with C_i = R_i =
    checkpoint size / [avail_bandwidth_gbs]. *)

val steady_state_counts :
  classes:Cocheck_model.App_class.t list ->
  platform:Cocheck_model.Platform.t ->
  (float * Cocheck_model.App_class.t) list
(** The average concurrent job count each class sustains when it holds its
    workload share of the platform: [n_i = (share_i/100) · N / q_i]. *)
