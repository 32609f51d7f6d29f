(** Scenario configuration for one simulation run. *)

type t = {
  platform : Cocheck_model.Platform.t;
  classes : Cocheck_model.App_class.t list;
  strategy : Cocheck_core.Strategy.t;
  seed : int;  (** root seed; jobs and failures draw from substreams *)
  min_duration_s : float;  (** workload span to generate (Section 5: 60 days + margins) *)
  seg_start : float;  (** measurement segment start (paper: after day 1) *)
  seg_end : float;  (** measurement segment end *)
  horizon : float;  (** hard simulation stop *)
  fill_factor : float;  (** workload node-second oversubscription, see {!Cocheck_model.Jobgen} *)
  with_failures : bool;
  failure_dist : Failure_trace.distribution;
      (** inter-arrival law for failures; the paper uses {!Failure_trace.Exponential} *)
  interference_alpha : float;
      (** 0 gives the paper's linear interference; larger values erode the
          aggregate bandwidth under contention (footnote 2's adversarial
          model), see {!Io_subsystem} *)
  multilevel : multilevel option;
      (** when set, jobs checkpoint through an L-level hierarchy
          ({!Ckpt_hierarchy}): cheap node-local snapshot levels that
          survive only {e soft} failures (SCR/FTI-style, references
          [9][15]) and/or buffer levels whose copies flush toward the PFS
          in the background (VELOC-style); see {!Cocheck_core.Multilevel}
          for the analytic model *)
}

and multilevel = { levels : level list }
(** Levels shallow → deep; the PFS is the implicit deepest level and is
    not listed. {!Snapshot} levels must precede {!Buffer} levels. *)

and level = Snapshot of snapshot_level | Buffer of buffer_level

and snapshot_level = {
  sl_period_s : float;  (** time between snapshots at this level *)
  sl_cost_s : float;  (** compute pause per snapshot, no PFS traffic *)
  sl_recovery_s : float;  (** restart delay when recovering from this level *)
  sl_survival : float;
      (** probability a failure leaves this level's data intact (the
          legacy [soft_fraction]); the remainder must recover deeper *)
}

and buffer_level = {
  bl_capacity_gb : float;  (** shared capacity of this storage tier *)
  bl_bandwidth_gbs : float;  (** absorb bandwidth jobs write at *)
  bl_flush_gbs : float option;
      (** background flush edge toward the next tier: [None] serializes
          drains one at a time through the next tier's I/O subsystem (the
          burst-buffer behavior, see {!with_burst_buffer});
          [Some b] gives the edge its own [b] GB/s virtual-time scheduler
          where concurrent flushes contend as ordinary weighted flows *)
  bl_survival : float;  (** probability a failure leaves this tier intact *)
}

type burst_buffer = { capacity_gb : float; bandwidth_gbs : float }
(** The paper's Section 8 burst buffer: a shared absorbing tier of
    [capacity_gb] that jobs write at [bandwidth_gbs] and that drains to the
    PFS in the background. It is syntax for one {!Buffer} level, see
    {!with_burst_buffer}. *)

val with_burst_buffer : burst_buffer -> multilevel option -> multilevel
(** Desugar a burst buffer into the hierarchy: appends
    [Buffer {bl_capacity_gb = capacity_gb; bl_bandwidth_gbs = bandwidth_gbs;
    bl_flush_gbs = None; bl_survival = 1.0}] after any snapshot levels.
    Raises [Invalid_argument] on a non-positive capacity or bandwidth, or
    when buffer levels are already present. *)

val make :
  platform:Cocheck_model.Platform.t ->
  ?classes:Cocheck_model.App_class.t list ->
  strategy:Cocheck_core.Strategy.t ->
  ?seed:int ->
  ?days:float ->
  ?fill_factor:float ->
  ?with_failures:bool ->
  ?failure_dist:Failure_trace.distribution ->
  ?interference_alpha:float ->
  ?multilevel:multilevel ->
  unit ->
  t
(** Build a paper-style configuration: a [days]-long measurement segment
    (default 60) preceded and followed by one excluded day, so
    [min_duration_s = days + 2] days, [seg_start = 1] day,
    [seg_end = days + 1] days, [horizon = days + 2] days. [classes]
    defaults to {!Cocheck_model.Apex.default_workload}. A burst buffer is
    passed as [~multilevel:(with_burst_buffer bb multilevel)].
    The Baseline strategy forces [with_failures = false]. *)

val local_level :
  period_s:float ->
  cost_s:float ->
  recovery_s:float ->
  soft_fraction:float ->
  multilevel
(** The legacy two-level configuration: one node-local {!Snapshot} level
    above the PFS ([sl_survival = soft_fraction]). *)

val baseline_of : t -> t
(** The same scenario under the Baseline strategy (no failures, no
    checkpoints, no interference) — the waste-ratio denominator run. *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent segments/horizons, a negative
    interference alpha or an invalid multilevel level (a non-positive
    period, bandwidth or capacity, a survival fraction outside \[0, 1\],
    or a snapshot level after a buffer level). *)
