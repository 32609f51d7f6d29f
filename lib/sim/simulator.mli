(** The discrete-event simulator of Section 5: space-shared jobs generated
    from application classes, first-fit online scheduling, exponential node
    failures with hot-spare replacement, and the configured I/O-and-
    checkpoint scheduling strategy mediating access to the shared parallel
    file system. *)

type result = {
  progress_ns : float;  (** useful node-seconds within the segment *)
  waste_ns : float;  (** wasted node-seconds within the segment *)
  enrolled_ns : float;  (** total enrolled node-seconds within the segment *)
  by_kind : (Metrics.kind * float) list;
  failures_seen : int;  (** failure events drawn (platform-wide) *)
  failures_hitting_jobs : int;
  ckpts_committed : int;
  ckpts_aborted : int;  (** commits destroyed by a failure mid-transfer *)
  restarts : int;
  jobs_started : int;
  jobs_completed : int;
  events : int;  (** engine events processed *)
  mean_ckpt_interval : (string * float) list;
      (** per class: mean time between committed checkpoints (commit end to
          commit end); [nan] for classes that never committed twice *)
  specs_total : int;  (** jobs in the generated list *)
  bb_absorbed : int;
      (** checkpoints a buffer level of the storage hierarchy absorbed (0
          without one) *)
  bb_spilled : int;  (** checkpoints that had to bypass full buffer levels *)
  mean_ckpt_wait : (string * float) list;
      (** per class: mean latency from checkpoint request to transfer start
          — the postponement exposure of the non-blocking strategies
          (Section 3.3); 0 under Oblivious, [nan] when no checkpoint of the
          class was ever granted *)
  utilization : float;
      (** enrolled node-seconds over the segment's node-second capacity —
          the Section 2 requirement that ≥98 % of nodes stay enrolled is
          observable here (baseline runs approach it; drain effects at
          workload edges lower it slightly) *)
  io_busy_fraction : float;
      (** fraction of the PFS's volume capacity actually moved over the
          whole run — the measured counterpart of Equation (6)'s F. Token
          strategies cannot exceed 1 by construction; values near 1 mean
          the device is saturated and the Theorem 1 constraint binds *)
  restarts_by_class : (string * int) list;
      (** failure-induced restarts attributed to each application class *)
  lost_work_by_class : (string * float) list;
      (** rolled-back node-seconds per class (whole run, not
          segment-clipped) — which class bleeds the most under failures *)
  token_grants : int;  (** requests the arbiter granted the I/O token *)
  candidates_scored : int;
      (** pending requests whose Eq. (1)/(2) waste (Least-Waste) or
          exposure (Greedy-Exposure) a grant evaluated; 0 under FIFO *)
  flushes_started : int;
      (** checkpoint-hierarchy drains begun, every level; 0 without
          buffer levels *)
  flushes_completed : int;
      (** hierarchy drains that landed one tier deeper; the rest were
          aborted by failures or cut by the horizon *)
}

type snapshot = {
  snap_time : float;
  free_nodes : int;
  used_nodes : int;
  queued_jobs : int;  (** submissions waiting for a node allocation *)
  running_insts : int;  (** allocated instances, whatever their activity *)
  computing : int;  (** instances making progress (pending request included) *)
  in_io : int;  (** instances with an active transfer (any kind) *)
  waiting : int;  (** instances blocked on the token or a local phase *)
  token_queue : int;  (** pending token requests (checkpoint and blocking I/O) *)
  token_busy : bool;
  io_flows : int;  (** concurrent PFS flows *)
  io_rate_gbs : float;  (** aggregate granted PFS rate right now *)
  bandwidth_gbs : float;  (** the platform's aggregate bandwidth, for utilization *)
  progress_ns : float;  (** cumulative, segment-clipped (see {!Metrics}) *)
  waste_ns : float;
  waste_by_kind : (Metrics.kind * float) list;  (** cumulative, all kinds *)
}
(** Platform state at a probe instant, for time-series sampling. *)

val generate_specs : Config.t -> Cocheck_model.Jobgen.spec array
(** The job list a config's seed induces (substream ["jobs"]); exposed so
    experiments can share one list across strategies within a replication. *)

val run :
  ?specs:Cocheck_model.Jobgen.spec array ->
  ?observe:(Trace.event -> unit) ->
  ?sample:float * (snapshot -> unit) ->
  ?on_engine:(Cocheck_des.Engine.t -> unit) ->
  Config.t ->
  result
(** Simulate. When [specs] is omitted they are generated from the config
    seed; failures always come from the seed's ["failures"] substream, so
    two runs of the same config are identical. Pass [observe] to receive
    the run's event stream, every {!Trace.event} in simulation order:
    [Trace.record t] keeps a bounded log, [Instrument.standard] feeds
    histograms. Pass [sample:(dt, f)] to have [f] observe a {!snapshot}
    every [dt] simulated seconds (requires [dt > 0]); probes read world
    state no event carries. [on_engine] runs once on
    the freshly created engine before any event is scheduled — the hook
    the tracing layer uses to attach per-kind event-churn counters
    ({!Cocheck_des.Engine.attach_stats} with {!Ev_kind.names}) and
    periodic GC sampling; it must not schedule events. Observability
    never perturbs the simulation: probes are read-only and scheduled on
    the same engine calendar. *)

val waste_ratio : strategy:result -> baseline:result -> float
(** Section 6's headline metric: the strategy's wasted node-seconds over
    the Baseline's useful node-seconds, both within the measurement
    segment. The Baseline runs without failures or checkpoints and its
    transfers are unshared, so all its enrolled node-seconds are useful:
    the denominator is the machine time the jobs occupy, and the ratio
    is a fraction of wall time (1 − efficiency). That is the quantity
    {!Cocheck_core.Waste}'s Equation (3), its platform form and the
    Theorem 1 bound approximate to first order. It is not resilience time
    over useful time, which would be [W / (1 − W)]. *)

val efficiency : strategy:result -> baseline:result -> float
(** [1 − waste_ratio] (the 80 %-efficiency target of Figure 3 is in these
    terms). *)
