(** The campaign engine: expands a {!Spec.t} into (cell, strategy,
    replication) points, executes them over a worker pool, and — when given
    a results store — persists every completed point incrementally and
    loads cache hits instead of re-simulating.

    The store ({!Store}) keeps one small JSON record per {!Spec.cell_key}
    digest, sharded by key prefix. Records are written atomically (temp
    file + rename), so a campaign killed mid-flight leaves only complete
    records behind and a re-run resumes exactly where it stopped:
    cooperative checkpointing for the checkpointing experiments. Because
    keys are derived from the exact per-point configuration, a store is
    shared across campaigns — growing [reps], extending the axis or
    adding strategies only simulates the new points.

    Determinism: replication [rep] of any cell always runs at
    [Spec.rep_seed ~seed ~rep], and per-(cell, strategy) ratio arrays are
    indexed by replication, so results — including float summation order in
    the candlestick aggregation — are identical whatever the pool size,
    scheduling, or cache-hit pattern. *)

type cell_result = {
  x : float option;  (** the swept value; [None] for unswept campaigns *)
  platform : Cocheck_model.Platform.t;
  strategy : Cocheck_core.Strategy.t;
  ratios : float array;  (** one waste ratio per replication, in rep order *)
  stats : Cocheck_util.Stats.candlestick;
}

type outcome = {
  spec : Spec.t;
  results : cell_result list;
      (** cell-major, strategy-minor: the result of cell [c] and strategy
          index [s] is element [c * num_strategies + s] *)
  simulated : int;  (** strategy simulations executed by this run *)
  baselines : int;  (** baseline (normalisation) simulations executed *)
  loaded : int;  (** results loaded from the store instead of simulated *)
}

type progress_event =
  | Point of {
      seq : int;  (** 1-based emission order, monotone across workers *)
      elapsed_s : float;  (** wall seconds since [run] started *)
      cell : int;  (** cell index in axis order *)
      x : float option;
      rep : int;
      strategy : string;
      source : [ `Cached | `Simulated ];
      done_points : int;  (** points completed so far, including this one *)
      total_points : int;
    }
  | Finished of {
      elapsed_s : float;
      simulated : int;
      baselines : int;
      loaded : int;
      total_points : int;
    }
(** One line of live campaign progress: a [Point] per completed
    (cell, strategy, replication) and a terminal [Finished]. Events are
    emitted under a mutex, so [seq] and [done_points] are monotone even
    with many pool workers. *)

val progress_to_json : progress_event -> Cocheck_obs.Json.t
(** One JSONL-ready object ([{"event":"point",...}] / [{"event":"end",...}]). *)

val progress_of_json : Cocheck_obs.Json.t -> progress_event option
(** Inverse of {!progress_to_json}; [None] on unknown or malformed
    events (forward compatibility for [status --follow]). *)

val run :
  pool:Cocheck_parallel.Pool.t ->
  ?store:Store.t ->
  ?tenant:Cocheck_parallel.Pool.tenant ->
  ?tracer:Cocheck_obs.Tracing.t ->
  ?on_progress:(progress_event -> unit) ->
  Spec.t ->
  outcome
(** Execute the campaign. Without [store], everything is simulated in
    memory. With [store], each completed (cell, strategy, replication)
    immediately persists one record, cached records are loaded instead of
    re-simulated, and a replication whose strategies are all cached skips
    its baseline run too — a fully warm store performs {e zero} simulator
    calls.

    [tenant] is the fair-queueing principal the cell tasks are submitted
    under: the campaign service gives each client connection its own, so
    concurrent campaigns round-robin the pool instead of queueing behind
    one another. Without it, tasks share the pool's default tenant.

    [tracer] (default {!Cocheck_obs.Tracing.disabled}) records one span
    per (cell, replication) task on the executing worker's track — tagged
    with a [source] arg of ["cached"] or ["simulated"] — with nested
    [generate] / [baseline] / [sim:<strategy>] child spans when the point
    actually simulates. [on_progress] receives every {!progress_event},
    serialized; it runs on worker domains, so keep it cheap (e.g. write
    one JSONL line). *)

type progress = { total : int; cached : int; missing : int }

val status : ?store:Store.t -> Spec.t -> progress
(** How much of the campaign the store already covers, without running
    anything. *)

val strategy_series : outcome -> Figures.series list
(** One {!Figures.series} per strategy (spec order), points over the cells
    in axis order. Pairing is index-based — no name matching. Unswept
    cells plot at [x = 0]. *)

val bound :
  ?classes:Cocheck_model.App_class.t list ->
  Cocheck_model.Platform.t ->
  (float * Cocheck_model.App_class.t) list * Cocheck_core.Lower_bound.result
(** The Theorem 1 bound of one platform at the steady-state job counts of
    [classes] (default {!Cocheck_model.Apex.default_workload}), returned
    beside the solution. Behind the theory series, the service's
    [bound] reply and [simctl bound]. *)

val outside_model :
  (float * Cocheck_model.App_class.t) list ->
  Cocheck_core.Lower_bound.result ->
  string option
(** Why {!bound}'s solution lies outside the first-order model (the
    summed waste reaches 1, or a named class's period reaches its job's
    MTBF); [None] inside it. The one wording [simctl bound] and the
    service's [bound] reply print. *)

val theory_series : Spec.t -> Figures.series
(** The "Theoretical Model" series over the spec's cells. *)

val to_figure : outcome -> Figures.t
(** Figure assembly: strategy series plus the theoretical-model series,
    labelled from the spec's axis. The id is the spec's name and the title
    is a function of the spec: what the axis sweeps, the platform and the
    fixed platform parameter(s), reps and segment days — e.g. ["Waste ratio
    vs node MTBF (Cielo, 40 GB/s, 100 reps, 60d segment)"]. *)
