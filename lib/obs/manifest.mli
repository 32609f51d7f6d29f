(** Run manifests: one JSON document per simulation recording the exact
    scenario ({!Cocheck_sim.Config.t} including platform, workload classes,
    strategy and seed), the wall-clock phase spans of the run's tracer,
    instrumentation counters, the final metrics summary and caller
    sections. A run written by
    [simctl run] carries its one-cell campaign spec as the ["spec"]
    section, and [Spec.load] reads that section back, so the run replays
    through [--spec]. The ["config"] section is write-only: it
    is the canonical form [Spec.cell_key] hashes.

    The piecewise codecs below are shared with the campaign spec and the
    results store. *)

val schema : string
val version : int

val config_to_json : Cocheck_sim.Config.t -> Json.t
(** Every field of the configuration, floats exact. Its bytes key the
    results store, so its shape does not change. *)

(** {2 Piecewise codecs}

    The building blocks of [config_to_json], exposed so other declarative
    formats (campaign specs, results-store records) share one JSON shape
    per domain type; each decoder is the exact inverse of its encoder. *)

val platform_to_json : Cocheck_model.Platform.t -> Json.t
val platform_of_json : Json.t -> (Cocheck_model.Platform.t, string) result
val app_class_to_json : Cocheck_model.App_class.t -> Json.t
val app_class_of_json : Json.t -> (Cocheck_model.App_class.t, string) result

val failure_dist_to_json : Cocheck_sim.Failure_trace.distribution -> Json.t

val failure_dist_of_json :
  Json.t -> (Cocheck_sim.Failure_trace.distribution, string) result

val multilevel_to_json : Cocheck_sim.Config.multilevel -> Json.t
val multilevel_of_json : Json.t -> (Cocheck_sim.Config.multilevel, string) result
(** Also reads the legacy two-level shape ([local_period_s], ...), which
    {!multilevel_to_json} still writes for a single snapshot level. *)

val result_to_json : Cocheck_sim.Simulator.result -> Json.t

val make :
  cfg:Cocheck_sim.Config.t ->
  ?tracer:Tracing.t ->
  ?result:Cocheck_sim.Simulator.result ->
  ?registry:Histogram.registry ->
  ?extra:(string * Json.t) list ->
  unit ->
  Json.t
(** The full manifest object: schema/version header, ["config"], and the
    optional ["timings"], ["result"], ["instrumentation"] and caller
    [extra] sections.

    ["timings"] is [{"phases": [{"name", "seconds", "calls"}...],
    "total_s"}], read from [tracer]'s slices of category ["phase"]: one
    entry per span name in first-recorded order, its durations summed
    and its slices counted; [total_s] sums the entries. Slices of other
    categories are left out, and a tracer with no phase slices (such as
    {!Tracing.disabled}, the default) writes no ["timings"]. *)

val write : path:string -> Json.t -> unit
(** Pretty-printed to [path]. *)

val load : path:string -> (Json.t, string) result
