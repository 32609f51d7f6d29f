(** Declarative campaign descriptions: one typed, serializable value that
    fully determines a Monte Carlo experiment grid.

    A campaign is a platform, a strategy set, an optional swept axis, a
    replication protocol (reps, root seed, segment days) and the modelling
    knobs. Every figure/table frontend builds one of these and hands it to
    {!Runner}: Figures 1 and 2 are the presets {!Fig1.spec} and
    {!Fig2.spec}, and Figure 3 bisects over the per-probe preset
    {!Fig3.probe}. The spec round-trips exactly through JSON (floats
    included, via {!Cocheck_obs.Json}'s lossless encoding), and each
    (cell, strategy, replication) result carries a canonical-form digest
    that keys it in the {!Runner} results store. *)

(** The swept parameter: each value produces one campaign cell by
    overriding the corresponding field of the base {!field:platform} (or,
    for [Flush_gbs], of the multilevel buffer levels). *)
type axis =
  | No_sweep  (** a single cell at the base platform *)
  | Mtbf_years of float list  (** sweep individual node MTBF (years) *)
  | Bandwidth_gbs of float list  (** sweep aggregate PFS bandwidth (GB/s) *)
  | Flush_gbs of float list
      (** sweep the dedicated background-flush bandwidth given to every
          {!Cocheck_sim.Config.Buffer} level of the multilevel hierarchy;
          requires such a level *)

type t = {
  name : string;  (** human label ("fig2", "ablation-bb", ...) *)
  platform : Cocheck_model.Platform.t;  (** base platform; the axis overrides one field per cell *)
  classes : Cocheck_model.App_class.t list option;
      (** [None] = the per-platform APEX default, resolved by {!Cocheck_sim.Config.make} *)
  strategies : Cocheck_core.Strategy.t list;
  axis : axis;
  reps : int;  (** Monte Carlo replications per (cell, strategy) *)
  seed : int;  (** root seed; replication [rep] runs at {!rep_seed} *)
  days : float;  (** measurement-segment length per run *)
  failure_dist : Cocheck_sim.Failure_trace.distribution option;
  interference_alpha : float option;
  multilevel : Cocheck_sim.Config.multilevel option;
      (** the checkpoint hierarchy, shallow to deep; the paper's burst
          buffer is one of its levels ({!Cocheck_sim.Config.with_burst_buffer}) *)
}

val make :
  ?name:string ->
  platform:Cocheck_model.Platform.t ->
  ?classes:Cocheck_model.App_class.t list ->
  strategies:Cocheck_core.Strategy.t list ->
  ?axis:axis ->
  reps:int ->
  seed:int ->
  days:float ->
  ?failure_dist:Cocheck_sim.Failure_trace.distribution ->
  ?interference_alpha:float ->
  ?multilevel:Cocheck_sim.Config.multilevel ->
  unit ->
  t
(** Defaults: name ["campaign"], no sweep, knobs unset (inheriting
    {!Cocheck_sim.Config.make}'s defaults). The replication protocol has no
    default: the paper's (100 reps, seed 42, 60-day segments) is held by
    the figure presets ({!Fig1.spec}, {!Fig2.spec}). A burst buffer is
    passed as [~multilevel:(Config.with_burst_buffer bb None)]. Runs
    {!validate}. *)

val validate : t -> unit
(** Raises [Invalid_argument] on an empty strategy set, non-positive reps
    or days, an empty/non-positive axis, or a [Flush_gbs] axis without a
    multilevel buffer level to apply it to. The modelling knobs are checked
    by building every cell's {!config}, so a spec is rejected exactly when
    {!Cocheck_sim.Config} would reject one of its runs: a negative
    interference alpha or an invalid level. *)

(** {2 Cell expansion} *)

type cell = {
  x : float option;  (** the swept value; [None] under {!No_sweep} *)
  platform : Cocheck_model.Platform.t;  (** base platform with the axis override applied *)
}

val cells : t -> cell list
(** One cell per axis value, in axis order ([No_sweep] gives one cell). *)

val points : t -> int
(** The campaign's (cell, strategy, replication) points: cells ×
    strategies × reps. *)

val with_values : axis -> float list -> axis
(** The same swept parameter over other values ([No_sweep] stays). *)

val axis_label : t -> string
(** The paper's axis caption: ["Node MTBF (years)"],
    ["System Aggregated Bandwidth (GB/s)"], or [""] for [No_sweep]. *)

val log_x : t -> bool
(** Whether figures over this axis conventionally use a log x scale
    (only the MTBF axis does). *)

val rep_seed : seed:int -> rep:int -> int
(** The derived per-replication seed. A large odd multiplier spreads
    replication seeds far apart in the SplitMix expansion space; this is
    {e the} one definition — every execution path (runner, tests)
    derives seeds here. *)

val config :
  t -> cell:cell -> strategy:Cocheck_core.Strategy.t -> rep:int -> Cocheck_sim.Config.t
(** The exact simulator configuration of one (cell, strategy, replication)
    point. A [multilevel] with no levels means no hierarchy. A single run
    is the one-cell ([No_sweep]), one-replication case:
    [rep_seed ~seed ~rep:0 = seed], so replication 0 runs at the root
    seed. *)

(** {2 Serialization} *)

val schema : string
val version : int

val to_json : t -> Cocheck_obs.Json.t

val of_json : Cocheck_obs.Json.t -> (t, string) result
(** Exact inverse of {!to_json}: [of_json (to_json s) = Ok s],
    field-for-field and bit-for-bit on floats. Strategies are accepted
    either in the structural encoding {!to_json} emits (lossless for
    arbitrary [Fixed] periods) or as paper-style name strings
    (["ordered-nb-daly"]) for hand-written specs. A top-level member
    {!to_json} does not write is an [Error "spec: unknown member \"…\""]
    rather than ignored, so a misspelled knob cannot silently run the
    default; a ["burst_buffer"] member, the retired second spelling of a
    buffer level, gets its own message. *)

val save : path:string -> t -> unit
val load : path:string -> (t, string) result
(** A spec file, or a run manifest ({!Cocheck_obs.Manifest}): a manifest
    is read through its ["spec"] section, so a run written down by
    [simctl run --manifest-out] replays with [--spec]. *)

(** {2 Digests} *)

val digest : t -> string
(** Hex digest of the canonical (compact JSON) form of the whole spec:
    any field change, including [name] or [reps], gives a new digest. *)

val cell_key :
  t -> cell:cell -> strategy:Cocheck_core.Strategy.t -> rep:int -> string
(** Hex digest keying one (cell, strategy, replication) {e result}. It is
    computed from the exact serialized {!Cocheck_sim.Config.t} of the
    point (plus the lossless structural strategy encoding), so it depends
    on precisely the fields that determine the simulation outcome —
    changing any of them gives a new key, while result-neutral spec edits
    (renaming the campaign, growing [reps] or the axis, adding strategies)
    leave existing keys valid. That is what makes the results store
    shareable between campaigns and extendable in place. *)
