(** One-screen ASCII run dashboard: headline metrics, waste breakdown,
    sparklines over the sampled platform series, and the instrumentation
    histograms. Rendered by [simctl run --dashboard]. *)

val waste_bars :
  ?width:int -> (Cocheck_sim.Metrics.kind * float) list -> string
(** Horizontal bars of wasted node-seconds per kind (progress kinds are
    skipped), widest bar [width] characters (default 40). *)

val render :
  cfg:Cocheck_sim.Config.t ->
  result:Cocheck_sim.Simulator.result ->
  ?series:Series.t ->
  ?registry:Histogram.registry ->
  unit ->
  string
(** Compose the dashboard. [series] is expected to carry the
    {!Sampler.fields} columns; sections for missing inputs are omitted. *)
