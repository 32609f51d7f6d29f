(** Run manifests: one JSON document per simulation capturing the exact
    scenario ({!Cocheck_sim.Config.t} including platform, workload classes,
    strategy and seed), wall-clock phase timings, instrumentation counters
    and the final metrics summary — so every Monte Carlo data point is a
    reproducible artifact: [config_of_json] rebuilds the exact [Config.t]
    that produced it. *)

val schema : string
val version : int

val strategy_to_string : Cocheck_core.Strategy.t -> string
(** {!Cocheck_core.Strategy.name}; guaranteed to parse back via
    {!Cocheck_core.Strategy.of_string}. *)

val config_to_json : Cocheck_sim.Config.t -> Json.t
val config_of_json : Json.t -> (Cocheck_sim.Config.t, string) result
(** Exact inverse of {!config_to_json} (field-for-field, floats included).
    A legacy ["burst_buffer"] member is still accepted and desugared by
    {!Cocheck_sim.Config.with_burst_buffer}; combining it with buffer
    levels is an [Error]. *)

(** {2 Piecewise encoders}

    The building blocks of [config_to_json], exposed so other declarative
    formats (campaign specs, results-store records) share one JSON shape
    per domain type and inherit the exact-round-trip guarantee. *)

val platform_to_json : Cocheck_model.Platform.t -> Json.t
val platform_of_json : Json.t -> (Cocheck_model.Platform.t, string) result
val app_class_to_json : Cocheck_model.App_class.t -> Json.t
val app_class_of_json : Json.t -> (Cocheck_model.App_class.t, string) result

val failure_dist_to_json : Cocheck_sim.Failure_trace.distribution -> Json.t

val failure_dist_of_json :
  Json.t -> (Cocheck_sim.Failure_trace.distribution, string) result

val burst_buffer_to_json : Cocheck_sim.Config.burst_buffer -> Json.t
val burst_buffer_of_json : Json.t -> (Cocheck_sim.Config.burst_buffer, string) result
val multilevel_to_json : Cocheck_sim.Config.multilevel -> Json.t
val multilevel_of_json : Json.t -> (Cocheck_sim.Config.multilevel, string) result

val result_to_json : Cocheck_sim.Simulator.result -> Json.t

val make :
  cfg:Cocheck_sim.Config.t ->
  ?timer:Timer.t ->
  ?result:Cocheck_sim.Simulator.result ->
  ?registry:Histogram.registry ->
  ?extra:(string * Json.t) list ->
  unit ->
  Json.t
(** The full manifest object: schema/version header, ["config"], and the
    optional ["timings"], ["result"], ["instrumentation"] and caller
    [extra] sections. *)

val config_of_manifest : Json.t -> (Cocheck_sim.Config.t, string) result
(** Extract and decode the ["config"] section of a manifest produced by
    {!make}. *)

val write : path:string -> Json.t -> unit
(** Pretty-printed to [path]. *)

val load : path:string -> (Json.t, string) result
