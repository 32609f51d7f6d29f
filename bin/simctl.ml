(* simctl — command-line front end for the cooperative-checkpointing
   simulator and the paper's experiments.

     simctl run --strategy least-waste --bandwidth 40 --mtbf-years 2
     simctl fig1 --out fig1.csv
     simctl fig2 --reps 40 --store results/
     simctl fig3
     simctl table1
     simctl bound --bandwidth 40 --mtbf-years 2 *)

open Cmdliner
module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Lower_bound = Cocheck_core.Lower_bound
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module Pool = Cocheck_parallel.Pool
module E = Cocheck_experiments
module Obs = Cocheck_obs

(* ------------------------------------------------------------------ *)
(* Shared options                                                       *)
(* ------------------------------------------------------------------ *)

(* Flags whose unset value is the preset's (or, outside the figure and
   campaign commands, the stock Cielo's; see [defaults]) are options. *)
let bandwidth_t =
  Arg.(value & opt (some float) None & info [ "bandwidth"; "b" ] ~docv:"GB_S"
         ~absent:"the preset's, else the platform's"
         ~doc:"Aggregate filesystem bandwidth in GB/s.")

let mtbf_years_t =
  Arg.(value & opt (some float) None & info [ "mtbf-years"; "m" ] ~docv:"YEARS"
         ~absent:"the preset's, else the platform's" ~doc:"Individual node MTBF in years.")

let seed_t =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~absent:"the preset's"
         ~doc:"Root random seed.")

let days_doc = "Measurement segment length in days (one excluded day is added on each side)."

let preset_days_t ?(absent = "the preset's") () =
  Arg.(value & opt (some float) None & info [ "days" ] ~docv:"DAYS" ~absent ~doc:days_doc)

let preset_reps_t ?(absent = "the preset's") () =
  Arg.(value & opt (some int) None & info [ "reps" ] ~docv:"N" ~absent
         ~doc:"Monte Carlo replications.")

let out_t =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Also write results as CSV to $(docv).")

let prospective_t =
  Arg.(value & flag & info [ "prospective" ]
         ~doc:"Use the prospective 50 000-node, 7 PB system instead of Cielo, at its own \
               1 TB/s and 15-year node MTBF unless --bandwidth or --mtbf-years is given.")

let domains_t =
  Arg.(value & opt (some int) None & info [ "domains"; "j" ] ~docv:"N"
         ~doc:"Worker domains for Monte Carlo (default: cores - 1).")

let strategy_conv =
  let parse s = match Strategy.of_string s with Ok v -> Ok v | Error e -> Error (`Msg e) in
  Arg.conv (parse, Strategy.pp)

let strategy_t =
  Arg.(value & opt strategy_conv Strategy.Least_waste
       & info [ "strategy"; "s" ] ~docv:"STRATEGY"
           ~doc:"One of oblivious-fixed, oblivious-daly, ordered-fixed, ordered-daly, \
                 ordered-nb-fixed, ordered-nb-daly, least-waste, greedy-exposure, \
                 baseline.")

let failure_dist_conv =
  let parse s =
    let module F = Cocheck_sim.Failure_trace in
    match String.lowercase_ascii (String.trim s) with
    | "exp" | "exponential" -> Ok F.Exponential
    | s when String.length s > 8 && String.sub s 0 8 = "weibull:" -> (
        match float_of_string_opt (String.sub s 8 (String.length s - 8)) with
        | Some shape when shape > 0.0 -> Ok (F.Weibull { shape })
        | _ -> Error (`Msg "weibull shape must be a positive number"))
    | s when String.length s > 10 && String.sub s 0 10 = "lognormal:" -> (
        match float_of_string_opt (String.sub s 10 (String.length s - 10)) with
        | Some sigma when sigma >= 0.0 -> Ok (F.Lognormal { sigma })
        | _ -> Error (`Msg "lognormal sigma must be non-negative"))
    | other -> Error (`Msg (Printf.sprintf "unknown failure distribution %S" other))
  in
  let pp ppf d =
    Format.pp_print_string ppf (Cocheck_sim.Failure_trace.distribution_name d)
  in
  Arg.conv (parse, pp)

let failure_dist_t =
  Arg.(value
       & opt (some failure_dist_conv) None
       & info [ "failure-dist" ] ~docv:"DIST"
           ~doc:"Failure inter-arrival law: exponential (default), weibull:<shape>, \
                 lognormal:<sigma>. Mean-matched to the node MTBF.")

let alpha_t =
  Arg.(value & opt (some float) None & info [ "alpha" ] ~docv:"ALPHA"
         ~doc:"Adversarial interference factor: aggregate bandwidth degrades to \
               beta/(1+alpha(k-1)) under k concurrent transfers. 0 (default) = the \
               paper's linear model.")

let multilevel_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ p; c; r; f ] -> (
        match
          (float_of_string_opt p, float_of_string_opt c, float_of_string_opt r,
           float_of_string_opt f)
        with
        | Some period_s, Some cost_s, Some recovery_s, Some soft_fraction ->
            Ok
              (Config.local_level ~period_s ~cost_s ~recovery_s
                 ~soft_fraction)
        | _ -> Error (`Msg "expected four numbers: period,cost,recovery,soft_fraction"))
    | _ -> Error (`Msg "expected PERIOD,COST,RECOVERY,SOFT (seconds,seconds,seconds,[0-1])")
  in
  let pp_level ppf = function
    | Config.Snapshot s ->
        Format.fprintf ppf "snapshot:%g,%g,%g,%g" s.Config.sl_period_s
          s.sl_cost_s s.sl_recovery_s s.sl_survival
    | Config.Buffer b ->
        Format.fprintf ppf "buffer:%g,%g%s,%g" b.Config.bl_capacity_gb
          b.bl_bandwidth_gbs
          (match b.bl_flush_gbs with None -> "" | Some f -> Printf.sprintf ",%g" f)
          b.bl_survival
  in
  let pp ppf (m : Config.multilevel) =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ';')
      pp_level ppf m.Config.levels
  in
  Arg.conv (parse, pp)

let multilevel_t =
  Arg.(value
       & opt (some multilevel_conv) None
       & info [ "multilevel" ] ~docv:"P,C,R,SOFT"
           ~doc:"Two-level checkpointing: local period (s), local snapshot cost (s), \
                 local recovery (s), soft-failure fraction. E.g. 600,5,10,0.6.")

(* Buffer tiers of the checkpoint hierarchy: semicolon-separated levels,
   shallow to deep, each CAP,BW[,FLUSH[,SURV]]. A FLUSH gives the level a
   dedicated background-drain edge; omitting it serializes the drain into
   the next level's pool (the classic burst-buffer behavior). *)
let hierarchy_conv =
  let parse_level s =
    let parts = List.map float_of_string_opt (String.split_on_char ',' (String.trim s)) in
    let buf cap bw flush surv =
      Ok
        (Config.Buffer
           {
             Config.bl_capacity_gb = cap;
             bl_bandwidth_gbs = bw;
             bl_flush_gbs = flush;
             bl_survival = surv;
           })
    in
    match parts with
    | [ Some cap; Some bw ] -> buf cap bw None 1.0
    | [ Some cap; Some bw; Some fl ] -> buf cap bw (Some fl) 1.0
    | [ Some cap; Some bw; Some fl; Some sv ] -> buf cap bw (Some fl) sv
    | _ -> Error (`Msg "each level is CAP_GB,BW_GBS[,FLUSH_GBS[,SURVIVAL]]")
  in
  (* [split_on_char] never returns [], so a parsed list is never empty. *)
  let parse s =
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | l :: rest -> (
          match parse_level l with Ok level -> collect (level :: acc) rest | Error _ as e -> e)
    in
    collect [] (String.split_on_char ';' s)
  in
  let pp ppf levels =
    Format.fprintf ppf "%d buffer level(s)" (List.length levels)
  in
  Arg.conv (parse, pp)

let hierarchy_t =
  Arg.(value
       & opt (some hierarchy_conv) None
       & info [ "hierarchy" ] ~docv:"CAP,BW[,FLUSH[,SURV]];..."
           ~doc:"Checkpoint-hierarchy buffer tiers, shallow to deep: capacity (GB), \
                 absorb bandwidth (GB/s), optional dedicated flush bandwidth (GB/s) \
                 and survival fraction. E.g. 250000,1000,20 for a burst buffer that \
                 drains to the PFS over a 20 GB/s edge. Composes with --multilevel \
                 (snapshot tiers come first).")

(* Snapshot tiers (--multilevel) and buffer tiers (--hierarchy) compose
   into one level list, shallow to deep. *)
let ml_of multilevel hierarchy =
  match (multilevel, hierarchy) with
  | m, None -> m
  | None, Some bufs -> Some { Config.levels = bufs }
  | Some m, Some bufs -> Some { Config.levels = m.Config.levels @ bufs }

(* The scenario flags: the platform and its modelling knobs. A flag left
   unset keeps the base spec's value; a knob unset there too stays [None],
   so the run takes Config's default. *)
type scenario = {
  bandwidth : float option;
  mtbf_years : float option;
  prospective : bool;
  failure_dist : Cocheck_sim.Failure_trace.distribution option;
  alpha : float option;
  multilevel : Config.multilevel option;
}

(* What unset flags mean outside the figure presets: Figure 1's protocol
   (the paper's seven strategies, replications, seed and segment days) on
   one cell of the stock Cielo. *)
let defaults =
  {
    E.Fig1.spec with
    E.Spec.name = "campaign";
    platform = Platform.cielo ();
    axis = E.Spec.No_sweep;
  }

(* [--prospective] swaps the machine for the prospective system at its
   own bandwidth and MTBF; [-b] and [-m] then override those. Raises
   [Invalid_argument] on a non-positive value. *)
let platform_of ?(base = defaults.E.Spec.platform) sc =
  let p = if sc.prospective then Platform.prospective () else base in
  Platform.make ~name:p.Platform.name ~nodes:p.nodes ~mem_per_node_gb:p.mem_per_node_gb
    ~bandwidth_gbs:(Option.value sc.bandwidth ~default:p.bandwidth_gbs)
    ~node_mtbf_s:(Option.fold sc.mtbf_years ~none:p.node_mtbf_s ~some:Cocheck_util.Units.years)

(* The platform flags alone, for the commands that take no knobs. *)
let platform_flags_t =
  let make bandwidth mtbf_years prospective =
    { bandwidth; mtbf_years; prospective; failure_dist = None; alpha = None; multilevel = None }
  in
  Term.(const make $ bandwidth_t $ mtbf_years_t $ prospective_t)

let platform_t = Term.(const (fun sc -> platform_of sc) $ platform_flags_t)

let scenario_t =
  let with_knobs sc failure_dist alpha multilevel hierarchy =
    { sc with failure_dist; alpha; multilevel = ml_of multilevel hierarchy }
  in
  Term.(const with_knobs $ platform_flags_t $ failure_dist_t $ alpha_t $ multilevel_t
        $ hierarchy_t)

(* [base] with the set flags applied. An invalid result is an error
   message and exit 1, not an uncaught exception. *)
let override ~what ?name ?axis ?strategies ?reps ?seed ?days sc (base : E.Spec.t) =
  let pick o d = Option.value o ~default:d and keep o d = if o = None then d else o in
  try
    E.Spec.make ~name:(pick name base.name) ~platform:(platform_of ~base:base.platform sc)
      ?classes:base.classes ~strategies:(pick strategies base.strategies)
      ~axis:(pick axis base.axis) ~reps:(pick reps base.reps) ~seed:(pick seed base.seed)
      ~days:(pick days base.days) ?failure_dist:(keep sc.failure_dist base.failure_dist)
      ?interference_alpha:(keep sc.alpha base.interference_alpha)
      ?multilevel:(keep sc.multilevel base.multilevel) ()
  with Invalid_argument m ->
    Format.eprintf "error: invalid %s: %s@." what m;
    exit 1

(* A single run is a one-cell, one-strategy, one-replication Spec; its
   manifest carries it, so `campaign run --spec` replays the run. *)
let single_run ~strategy ?seed ?days sc =
  override ~what:"run" ~name:"run" ~strategies:[ strategy ] ~reps:1 ?seed ?days sc defaults

(* The single run's configuration under strategy [s], Baseline included:
   replication 0 runs at the root seed. *)
let run_config spec s =
  E.Spec.config spec ~cell:(List.hd (E.Spec.cells spec)) ~strategy:s ~rep:0

(* Observability outputs of `run`. *)

let trace_out_t =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the structured event log as JSONL to $(docv).")

let series_out_t =
  Arg.(value & opt (some string) None & info [ "series-out" ] ~docv:"FILE"
         ~doc:"Sample the platform periodically and write the time series as CSV to \
               $(docv).")

let manifest_out_t =
  Arg.(value & opt (some string) None & info [ "manifest-out" ] ~docv:"FILE"
         ~doc:"Write the run manifest (its one-cell campaign spec, config, the \
               wall-clock timings of its phase spans, instrumentation, final metrics) \
               as JSON to $(docv); `simctl campaign run --spec $(docv)` replays the \
               run.")

let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | _ -> Error (`Msg "expected a positive number")
  in
  Arg.conv (parse, Format.pp_print_float)

let sample_dt_t =
  Arg.(value & opt (some pos_float_conv) None & info [ "sample-dt" ] ~docv:"SECONDS"
         ~doc:"Probe interval for the time series (default: horizon / 400).")

let events_t =
  Arg.(value & opt ~vopt:(Some None) (some (some ~none:"every event" int)) None
       & info [ "events" ] ~docv:"JOB"
           ~doc:"After the summary, print the run's structured event log (at most --limit \
                 events), or every event of job $(docv) when one is given.")

let limit_t =
  Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N"
         ~doc:"Maximum events --events prints.")

let timeline_t =
  Arg.(value & opt ~vopt:(Some 48) (some int) None
       & info [ "timeline" ] ~docv:"BUCKETS"
           ~doc:"After the summary, render the node-utilization timeline over $(docv) \
                 time buckets (default 48); dips are failure kills and drain effects.")

let dashboard_t =
  Arg.(value & flag & info [ "dashboard" ]
         ~doc:"After the summary, render an ASCII dashboard: headline metrics, waste \
               breakdown, platform sparklines, latency histograms.")

let perfetto_out_t =
  Arg.(value & opt (some string) None & info [ "perfetto-out" ] ~docv:"FILE"
         ~doc:"Profile the run itself — engine phase spans, per-worker lanes, \
               event-churn and GC counter tracks — and write Chrome trace_event \
               JSON to $(docv); load it in ui.perfetto.dev or chrome://tracing.")

(* The orchestrating (main-domain) lane. Pool workers occupy tracks
   0..n-1, so the orchestrator sits on a high track id. *)
let main_track = 1000

(* An output file that cannot be written is an error message and exit 1,
   not an uncaught [Sys_error]. *)
let writing path f =
  try f ()
  with Sys_error msg ->
    (* The message reads "PATH: reason" when the path is at fault. *)
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    Format.eprintf "error: cannot write %s: %s@." path reason;
    exit 1

(* Open every requested output once before any simulation runs, so a bad
   path fails fast. Appending leaves an existing file as it is. *)
let check_writable paths =
  List.iter
    (Option.iter (fun p ->
         writing p (fun () ->
             close_out (open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 p))))
    paths

let write_file path contents =
  writing path (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc);
  Format.printf "wrote %s@." path

let finish_figure out fig =
  print_string (E.Figures.render fig);
  Option.iter (fun path -> write_file path (E.Figures.to_csv fig)) out

type outputs = {
  trace_out : string option;
  series_out : string option;
  manifest_out : string option;
  sample_dt : float option;
  events : int option option;  (* [Some None]: every event; [Some (Some j)]: job [j]'s *)
  limit : int;
  timeline : int option;  (* buckets *)
  dashboard : bool;
}

let outputs_t =
  let make trace_out series_out manifest_out sample_dt events limit timeline dashboard =
    { trace_out; series_out; manifest_out; sample_dt; events; limit; timeline; dashboard }
  in
  Term.(const make $ trace_out_t $ series_out_t $ manifest_out_t $ sample_dt_t $ events_t
        $ limit_t $ timeline_t $ dashboard_t)

let output_paths o = [ o.trace_out; o.series_out; o.manifest_out ]

(* What a run records beside its result: only what an output asks for.
   The trace ring feeds --trace-out, --events and --timeline; the
   histograms feed the manifest and the dashboard, the series the CSV and
   the dashboard. *)
type recorders = {
  trace : Cocheck_sim.Trace.t option;
  registry : Obs.Histogram.registry option;
  observe : (Cocheck_sim.Trace.event -> unit) option;
      (* the one event observer feeding [trace] and [registry] *)
  series : Obs.Series.t option;
  sample : (float * (Simulator.snapshot -> unit)) option;
}

let recorders o cfg =
  let registry =
    if o.dashboard || o.manifest_out <> None then Some (Obs.Histogram.registry ()) else None
  in
  let series, sample =
    if o.dashboard || o.series_out <> None then
      let dt = match o.sample_dt with Some d -> d | None -> Obs.Sampler.default_dt cfg in
      let s, observe = Obs.Sampler.create () in
      (Some s, Some (dt, observe))
    else (None, None)
  in
  let trace =
    if o.trace_out <> None || o.events <> None || o.timeline <> None then
      Some (Cocheck_sim.Trace.create ~capacity:2_000_000 ())
    else None
  in
  let observe =
    match
      (Option.map Cocheck_sim.Trace.record trace, Option.map Obs.Instrument.standard registry)
    with
    | None, None -> None
    | Some f, None | None, Some f -> Some f
    | Some f, Some g ->
        Some
          (fun e ->
            f e;
            g e)
  in
  { trace; registry; observe; series; sample }

(* The sections the output flags append to the summary, in a fixed
   order: events, timeline, dashboard. *)
let print_sections o recs ~cfg (r : Simulator.result) =
  let module Trace = Cocheck_sim.Trace in
  Option.iter
    (fun job ->
      let trace = Option.get recs.trace in
      Format.printf
        "%d events traced (%d retained); jobs started %d, completed %d, restarts %d@.@."
        (Trace.length trace + Trace.dropped trace)
        (Trace.length trace) r.jobs_started r.jobs_completed r.restarts;
      match job with
      | Some job -> List.iter (Format.printf "%a@." Trace.pp_event) (Trace.for_job trace ~job)
      | None -> print_string (Trace.dump ~limit:o.limit trace))
    o.events;
  Option.iter
    (fun buckets ->
      let tl =
        try
          E.Timeline.build ~trace:(Option.get recs.trace)
            ~total_nodes:cfg.Config.platform.Platform.nodes ~horizon:cfg.horizon ~buckets ()
        with Invalid_argument m ->
          Format.eprintf "error: %s@." m;
          exit 1
      in
      Format.printf "%a — %s, %d jobs started, %d restarts@.@." Platform.pp cfg.platform
        (Strategy.name cfg.strategy) r.jobs_started r.restarts;
      print_string (E.Timeline.render tl))
    o.timeline;
  if o.dashboard then
    print_string
      (Obs.Dashboard.render ~cfg ~result:r ?series:recs.series ?registry:recs.registry ())

let write_outputs o recs ~spec ~cfg ~tracer ~result ?(extra = []) () =
  Option.iter
    (fun path ->
      writing path (fun () ->
          let oc = open_out path in
          Obs.Export.write_jsonl oc (Option.get recs.trace);
          close_out oc);
      Format.printf "wrote %s@." path)
    o.trace_out;
  Option.iter
    (fun path -> write_file path (Obs.Series.to_csv (Option.get recs.series)))
    o.series_out;
  Option.iter
    (fun path ->
      writing path (fun () ->
          Obs.Manifest.write ~path
            (Obs.Manifest.make ~cfg ~tracer ~result ?registry:recs.registry
               ~extra:(("spec", E.Spec.to_json spec) :: extra)
               ()));
      Format.printf "wrote %s@." path)
    o.manifest_out

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let action strategy scenario seed days outputs perfetto_out =
    let spec = single_run ~strategy ?seed ?days scenario in
    let config = run_config spec in
    let cfg = config strategy in
    check_writable (perfetto_out :: output_paths outputs);
    Format.printf "%a@." Platform.pp cfg.Config.platform;
    let recs = recorders outputs cfg in
    (* The manifest's timings are the tracer's phase spans. The engine
       counter tracks and pool lanes are the profile: only --perfetto-out
       pays for them, so a manifest-only run keeps the engine stat-free
       and its instrumentation section free of wall-clock pool waits. *)
    let tracer =
      if perfetto_out = None && outputs.manifest_out = None then Obs.Tracing.disabled
      else Obs.Tracing.create ()
    in
    let profile = if perfetto_out = None then Obs.Tracing.disabled else tracer in
    let specs =
      Obs.Tracing.span tracer ~cat:"phase" ~track:main_track "generate" (fun () ->
          Simulator.generate_specs (config Strategy.Baseline))
    in
    (* Baseline and strategy run as two tasks of one pool. When profiled,
       the trace shows them as per-worker lanes, each simulation with its
       own engine/GC counter tracks; unprofiled, every hook is a no-op. *)
    Obs.Tracing.name_track tracer ~track:main_track "main";
    let phase name f =
      Obs.Tracing.span tracer ~cat:"phase" ~track:(Pool.current_worker ()) name f
    in
    let instrumented prefix runit =
      (* The flush emits one final counter sample once the engine drains,
         so short runs still get counter points. *)
      let flush = ref (fun () -> ()) in
      let on_engine engine =
        flush :=
          Obs.Tracing.instrument_engine profile ~prefix ~kinds:Cocheck_sim.Ev_kind.names
            engine
      in
      let r = runit ~on_engine in
      !flush ();
      r
    in
    let baseline, r =
      Pool.with_pool ~num_domains:2
        ~telemetry:(Obs.Tracing.pool_telemetry profile)
        (fun pool ->
          let fb =
            Pool.async pool (fun () ->
                phase "baseline" (fun () ->
                    instrumented "baseline" (fun ~on_engine ->
                        Simulator.run ~specs ~on_engine (config Strategy.Baseline))))
          in
          let fr =
            Pool.async pool (fun () ->
                phase "simulate" (fun () ->
                    instrumented (Strategy.name strategy) (fun ~on_engine ->
                        Simulator.run ~specs ?observe:recs.observe ?sample:recs.sample
                          ~on_engine cfg)))
          in
          let b = Pool.await fb in
          let r = Pool.await fr in
          (b, r))
    in
    let waste_ratio = Simulator.waste_ratio ~strategy:r ~baseline in
    Format.printf "strategy: %s@." (Strategy.name strategy);
    Format.printf "waste ratio: %.4f (efficiency %.4f)@." waste_ratio
      (Simulator.efficiency ~strategy:r ~baseline);
    Format.printf
      "jobs: %d generated, %d started, %d completed; failures hitting jobs: %d; restarts: %d@."
      r.specs_total r.jobs_started r.jobs_completed r.failures_hitting_jobs r.restarts;
    Format.printf "checkpoints: %d committed, %d aborted@."
      r.ckpts_committed r.ckpts_aborted;
    if r.bb_absorbed > 0 || r.bb_spilled > 0 then
      Format.printf "buffer levels: %d commits absorbed, %d spilled@." r.bb_absorbed
        r.bb_spilled;
    Format.printf "node-seconds in segment: progress %.4e, waste %.4e, enrolled %.4e@."
      r.progress_ns r.waste_ns r.enrolled_ns;
    Format.printf "utilization %.3f, I/O device busy fraction %.3f@." r.utilization
      r.io_busy_fraction;
    List.iter
      (fun (k, v) ->
        if v > 0.0 then Format.printf "  %-12s %.4e@." (Metrics.kind_name k) v)
      r.by_kind;
    List.iter
      (fun (name, mean) ->
        if Float.is_finite mean then
          Format.printf "mean commit-to-commit interval %s: %.0f s@." name mean)
      r.mean_ckpt_interval;
    List.iter2
      (fun (name, restarts) (_, lost) ->
        if restarts > 0 then
          Format.printf "%s: %d restarts, %.3g node-seconds rolled back@." name restarts
            lost)
      r.restarts_by_class r.lost_work_by_class;
    print_sections outputs recs ~cfg r;
    write_outputs outputs recs ~spec ~cfg ~tracer ~result:r
      ~extra:[ ("waste_ratio", Obs.Json.Float waste_ratio) ]
      ();
    Option.iter
      (fun path ->
        writing path (fun () -> Obs.Tracing.write ~path ~process_name:"simctl run" tracer);
        let dropped = Obs.Tracing.dropped tracer in
        Format.printf "wrote %s (%d events%s)@." path (Obs.Tracing.length tracer)
          (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else ""))
      perfetto_out
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a single simulation and print its waste breakdown; --events, --timeline \
             and --dashboard append its event log, utilization timeline and dashboard.")
    Term.(const action $ strategy_t $ scenario_t $ seed_t $ preset_days_t () $ outputs_t
          $ perfetto_out_t)

(* ------------------------------------------------------------------ *)
(* figures                                                              *)
(* ------------------------------------------------------------------ *)

let with_pool ?telemetry domains f = Pool.with_pool ?num_domains:domains ?telemetry f

let fig3_cmd =
  let iters_t =
    Arg.(value & opt (some int) None & info [ "iters" ] ~docv:"N" ~absent:"the figure's"
           ~doc:"Bisection iterations per simulated bandwidth search.")
  in
  let action reps seed days iters out domains =
    check_writable [ out ];
    with_pool domains (fun pool ->
        finish_figure out (E.Fig3.run ~pool ?reps ?seed ?days ?iters ()))
  in
  Cmd.v (Cmd.info "fig3" ~doc:"Min bandwidth for 80% efficiency (paper Figure 3).")
    Term.(const action $ preset_reps_t () $ seed_t $ preset_days_t () $ iters_t $ out_t
          $ domains_t)

let table1_cmd =
  let action () = print_string (E.Table1.render ()) in
  Cmd.v (Cmd.info "table1" ~doc:"LANL APEX workload table (paper Table 1).")
    Term.(const action $ const ())

(* A bound outside the first-order model is no bound: say so instead of
   printing a waste past 1 as a negative efficiency. *)
let print_bound_waste ~waste = function
  | None -> Format.printf "waste lower bound: %.4f (efficiency %.4f)@." waste (1.0 -. waste)
  | Some why ->
      Format.printf
        "waste lower bound: outside the first-order model (%s; Equation (7) gives %.4f)@." why
        waste

let bound_cmd =
  let action platform =
    let counts, r = E.Runner.bound platform in
    Format.printf "%a@." Platform.pp platform;
    Format.printf "lambda: %.6g@." r.Lower_bound.lambda;
    Format.printf "I/O fraction F: %.4f@." r.io_fraction;
    print_bound_waste ~waste:r.waste (E.Runner.outside_model counts r);
    List.iter
      (fun ((_, c), (p, pd)) ->
        Format.printf "  %-10s P_opt = %8.0f s   P_Daly = %8.0f s@."
          c.Cocheck_model.App_class.name p pd)
      (List.combine counts (List.combine r.periods r.daly_periods))
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Theorem 1 lower bound and optimal periods for a platform.")
    Term.(const action $ platform_t)

let ablation_cmd =
  let names = List.map fst E.Ablations.studies @ [ "all" ] in
  let which_t =
    Arg.(value
         & pos 0 (enum (List.map (fun n -> (n, n)) names)) "all"
         & info [] ~docv:"STUDY" ~doc:("One of " ^ String.concat ", " names ^ "."))
  in
  let action which reps seed days domains =
    with_pool domains (fun pool ->
        let seed = Option.value seed ~default:defaults.E.Spec.seed in
        List.iter
          (fun (name, run) ->
            if which = "all" || which = name then begin
              let s : E.Ablations.study = run ~pool ~reps ~seed ~days in
              Format.printf "@.%s@.%s" s.title (Cocheck_util.Table.render s.table)
            end)
          E.Ablations.studies)
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:("Ablation studies: " ^ String.concat ", " (List.map fst E.Ablations.studies) ^ "."))
    Term.(const action $ which_t
          $ Arg.(value & opt int 8 & info [ "reps" ] ~docv:"N" ~doc:"Monte Carlo replications.")
          $ seed_t
          $ Arg.(value & opt float 20.0 & info [ "days" ] ~docv:"DAYS" ~doc:days_doc)
          $ domains_t)

let check_cmd =
  let action reps seed days domains =
    with_pool domains (fun pool ->
        let checks = E.Shape_checks.run ~pool ?reps ?seed ?days () in
        print_string (E.Shape_checks.render checks);
        if not (E.Shape_checks.all_passed checks) then exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify the paper's qualitative claims (strategy orderings, crossovers, \
             bound tracking) against a reduced Monte Carlo. Exits non-zero on failure.")
    Term.(const action $ preset_reps_t ~absent:"reduced" () $ seed_t
          $ preset_days_t ~absent:"reduced" () $ domains_t)

let report_cmd =
  let action full seed out domains =
    check_writable [ out ];
    with_pool domains (fun pool ->
        let depth = if full then E.Report.full else E.Report.quick in
        let md = E.Report.generate ~pool ~depth ?seed () in
        match out with Some path -> write_file path md | None -> print_string md)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run every experiment and emit a self-contained markdown reproduction              report (quick depth by default; --full for the EXPERIMENTS.md protocol).")
    Term.(const action
          $ Arg.(value & flag & info [ "full" ] ~doc:"Full-depth protocol (slow).")
          $ seed_t $ out_t $ domains_t)

(* ------------------------------------------------------------------ *)
(* campaign                                                             *)
(* ------------------------------------------------------------------ *)

(* The per-point progress line, shared by `campaign status --progress` and
   `query campaign --progress`. *)
let render_progress = function
  | E.Runner.Point { done_points; total_points; elapsed_s; cell; rep; strategy; source; _ } ->
      Format.printf "[%4d/%d] %8.1fs  cell %-3d rep %-3d %-20s %s@." done_points total_points
        elapsed_s cell rep strategy
        (match source with `Cached -> "cached" | `Simulated -> "simulated")
  | E.Runner.Finished _ -> ()

let store_t =
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Results store: one digest-keyed cocheck.cell-result JSON record per \
               (cell, strategy, replication), holding that point's waste ratio. A \
               re-run loads cached records instead of re-simulating, so an \
               interrupted campaign resumes where it stopped; stores are shared \
               between campaigns and figures.")

let spec_file_t =
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE"
         ~doc:"Load the campaign spec from a JSON file (written by --save-spec or by \
               hand, or a run manifest written by --manifest-out, which replays that \
               run); the platform/axis/strategy flags are then ignored.")

let load_spec path =
  match E.Spec.load ~path with
  | Ok spec -> spec
  | Error e ->
      Format.eprintf "error: cannot load spec %s: %s@." path e;
      exit 1

(* The header of `campaign run` and `campaign status`, naming the campaign
   once. *)
let print_campaign_header spec =
  Format.printf "%s (digest %s): %d cells x %d strategies x %d reps@." spec.E.Spec.name
    (E.Spec.digest spec) (List.length (E.Spec.cells spec)) (List.length spec.E.Spec.strategies)
    spec.E.Spec.reps

(* The axis --axis (else [base]'s) over --values; [None] when both are
   unset. *)
let axis_of (base : E.Spec.t) axis values =
  match (axis, values) with
  | None, [] -> None
  | kind, vs -> Some (E.Spec.with_values (Option.value kind ~default:base.E.Spec.axis) vs)

let strategies_t =
  Arg.(value
       & opt (some (list ~sep:',' strategy_conv)) None
       & info [ "strategies" ] ~docv:"S1,S2,..." ~absent:"the preset's"
           ~doc:"Sweep these strategies instead of the preset's (the paper's seven) — \
                 e.g. least-waste,greedy-exposure,ordered-nb-daly to pit an added \
                 arbitration policy against the paper's curves.")

(* `campaign run` over [preset]: the spec is the --spec file, or [preset]
   with the set flags applied. A swept campaign renders as a figure. *)
let campaign_run preset =
  let name_t =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~absent:"the preset's"
           ~doc:"Campaign name (figure id / spec label).")
  in
  let axis_t =
    Arg.(value
         & opt (some (enum
                        [ ("none", E.Spec.No_sweep); ("mtbf", E.Spec.Mtbf_years []);
                          ("bandwidth", E.Spec.Bandwidth_gbs []); ("flush", E.Spec.Flush_gbs []) ]))
             None
         & info [ "axis" ] ~docv:"AXIS" ~absent:"the preset's"
             ~doc:"Swept parameter: none (a single cell), mtbf, bandwidth, or flush \
                   (background-flush bandwidth of the --hierarchy buffer levels, GB/s).")
  in
  let values_t =
    Arg.(value & opt (list ~sep:',' float) [] & info [ "values" ] ~docv:"V1,V2,..."
           ~doc:"Axis values (years for --axis mtbf, GB/s for --axis bandwidth and \
                 --axis flush). Without --axis they replace the values of the preset's \
                 own axis.")
  in
  let save_spec_t =
    Arg.(value & opt (some string) None & info [ "save-spec" ] ~docv:"FILE"
           ~doc:"Write the resolved campaign spec as JSON to $(docv) — the file \
                 round-trips exactly and can seed later runs via --spec.")
  in
  let progress_out_t =
    Arg.(value & opt (some string) None & info [ "progress" ] ~docv:"FILE"
           ~doc:"Stream live progress to $(docv) as JSONL: one line per completed \
                 (cell, strategy, replication) point — tagged cached or simulated — \
                 and a final end line. Tail it with `simctl campaign status \
                 --progress $(docv) --follow`.")
  in
  let campaign_perfetto_out_t =
    Arg.(value & opt (some string) None & info [ "perfetto-out" ] ~docv:"FILE"
           ~doc:"Profile the campaign execution — per-worker task/idle lanes, one \
                 span per (cell, replication) with nested baseline/simulate child \
                 spans — and write Chrome trace_event JSON to $(docv) for \
                 ui.perfetto.dev.")
  in
  let action spec_file name axis values scenario strategies reps seed days store save_spec
      out domains progress perfetto_out =
    let spec =
      match spec_file with
      | Some path -> load_spec path
      | None ->
          override ~what:"campaign" ?name ?axis:(axis_of preset axis values) ?strategies
            ?reps ?seed ?days scenario preset
    in
    if out <> None && spec.E.Spec.axis = E.Spec.No_sweep then begin
      Format.eprintf
        "error: --out needs a swept axis (--axis); an unswept campaign prints one mean \
         per strategy@.";
      exit 1
    end;
    check_writable [ save_spec; out; progress; perfetto_out ];
    Option.iter
      (fun path ->
        writing path (fun () -> E.Spec.save ~path spec);
        Format.printf "wrote %s@." path)
      save_spec;
    let tracer =
      match perfetto_out with
      | None -> Obs.Tracing.disabled
      | Some _ -> Obs.Tracing.create ()
    in
    let progress_oc = Option.map (fun p -> writing p (fun () -> open_out p)) progress in
    let on_progress =
      Option.map
        (fun oc ev ->
          output_string oc (Obs.Json.to_string (E.Runner.progress_to_json ev));
          output_char oc '\n';
          (* One flush per line keeps the stream consumable by
             `campaign status --follow` while the campaign runs. *)
          flush oc)
        progress_oc
    in
    with_pool ~telemetry:(Obs.Tracing.pool_telemetry tracer) domains (fun pool ->
        let store = Option.map E.Store.open_ store in
        let o = E.Runner.run ~pool ?store ~tracer ?on_progress spec in
        print_campaign_header spec;
        Format.printf "records: total=%d cached=%d simulated=%d baselines=%d@."
          (E.Spec.points spec)
          o.E.Runner.loaded o.E.Runner.simulated o.E.Runner.baselines;
        match spec.E.Spec.axis with
        | E.Spec.No_sweep ->
            List.iter
              (fun (r : E.Runner.cell_result) ->
                Format.printf "%-24s mean waste %.4f@."
                  (Strategy.name r.E.Runner.strategy)
                  r.E.Runner.stats.Cocheck_util.Stats.mean)
              o.E.Runner.results
        | _ -> finish_figure out (E.Runner.to_figure o));
    Option.iter close_out progress_oc;
    Option.iter (fun path -> Format.printf "wrote %s@." path) progress;
    Option.iter
      (fun path ->
        writing path (fun () -> Obs.Tracing.write ~path ~process_name:"simctl campaign" tracer);
        Format.printf "wrote %s (%d events)@." path (Obs.Tracing.length tracer))
      perfetto_out
  in
  Term.(const action $ spec_file_t $ name_t $ axis_t $ values_t $ scenario_t $ strategies_t
        $ preset_reps_t () $ seed_t $ preset_days_t () $ store_t $ save_spec_t $ out_t $ domains_t
        $ progress_out_t $ campaign_perfetto_out_t)

let campaign_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a declarative campaign (from --spec or from flags), resuming from \
             the results store when one is given.")
    (campaign_run defaults)

(* A paper figure is `campaign run` on its preset. *)
let figure_cmd name ~doc preset =
  Cmd.v (Cmd.info name ~doc:(doc ^ ": `campaign run` on its preset.")) (campaign_run preset)

let campaign_status_cmd =
  let spec_opt_t =
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE"
           ~doc:"Campaign spec JSON file (with --store: inspect the results store).")
  in
  let store_opt_t =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Results store directory to inspect (with --spec).")
  in
  let progress_t =
    Arg.(value & opt (some string) None & info [ "progress" ] ~docv:"FILE"
           ~doc:"Render the live JSONL progress stream written by `campaign run \
                 --progress $(docv)` instead of inspecting a store.")
  in
  let follow_t =
    Arg.(value & flag & info [ "follow"; "f" ]
           ~doc:"With --progress: keep tailing (waiting for the file to appear if \
                 necessary) until the campaign's end event arrives.")
  in
  (* Tail the JSONL stream byte-wise: [input_line] would swallow a
     half-written final line, losing bytes on the next poll. A channel at
     EOF on a regular file retries the read on the next call, so polling
     [input_char] after [End_of_file] picks up appended data. *)
  let follow_progress ~follow path =
    let rec wait_for_file () =
      if Sys.file_exists path then true
      else if follow then begin
        Unix.sleepf 0.2;
        wait_for_file ()
      end
      else false
    in
    if not (wait_for_file ()) then begin
      Format.eprintf "error: no progress file %s (is the campaign running with --progress?)@."
        path;
      exit 1
    end;
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let buf = Buffer.create 256 in
        let finished = ref false in
        let handle line =
          match Obs.Json.of_string line with
          | Error _ -> ()
          | Ok j -> (
              match E.Runner.progress_of_json j with
              | None -> ()
              | Some ev -> (
                  render_progress ev;
                  match ev with
                  | E.Runner.Finished f ->
                      Format.printf
                        "done: %d points in %.1fs (%d simulated, %d baselines, %d cached)@."
                        f.total_points f.elapsed_s f.simulated f.baselines f.loaded;
                      finished := true
                  | E.Runner.Point _ -> ()))
        in
        let rec loop () =
          match input_char ic with
          | '\n' ->
              handle (Buffer.contents buf);
              Buffer.clear buf;
              if not !finished then loop ()
          | c ->
              Buffer.add_char buf c;
              loop ()
          | exception End_of_file ->
              if follow && not !finished then begin
                Unix.sleepf 0.2;
                loop ()
              end
        in
        loop ())
  in
  let action spec_file store progress follow =
    match progress with
    | Some path -> follow_progress ~follow path
    | None -> (
        match (spec_file, store) with
        | Some spec_file, Some store ->
            let spec = load_spec spec_file in
            let p = E.Runner.status ~store:(E.Store.open_ store) spec in
            print_campaign_header spec;
            Format.printf "records: total=%d cached=%d missing=%d@." p.E.Runner.total
              p.E.Runner.cached p.E.Runner.missing
        | _ ->
            Format.eprintf
              "error: pass either --progress FILE, or both --spec and --store@.";
            exit 2)
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Report how much of a campaign the results store already covers (--spec + \
             --store), or render/tail the live progress stream of a running campaign \
             (--progress [--follow]).")
    Term.(const action $ spec_opt_t $ store_opt_t $ progress_t $ follow_t)

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Declarative experiment campaigns: typed JSON specs, digest-keyed result \
             caching, resumable execution.")
    [ campaign_run_cmd; campaign_status_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / query                                                        *)
(* ------------------------------------------------------------------ *)

let socket_t =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Serve on (connect to) a Unix-domain socket at $(docv).")

let port_t =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Serve on (connect to) TCP 127.0.0.1:$(docv).")

let endpoint_error () =
  Format.eprintf "error: pass exactly one of --socket PATH or --port PORT@.";
  exit 2

let serve_cmd =
  let store_req_t =
    Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Results store directory the service answers from (created if \
                 needed).")
  in
  let max_inflight_t =
    Arg.(value & opt int 4096 & info [ "max-inflight" ] ~docv:"POINTS"
           ~doc:"Admission bound: campaign requests get an immediate overload reply \
                 while this many points are already queued or running (an idle server \
                 always admits).")
  in
  let action socket port store domains max_inflight =
    let listener =
      match (socket, port) with
      | Some path, None -> E.Service.listen_unix path
      | None, Some port -> E.Service.listen_tcp port
      | _ -> endpoint_error ()
    in
    with_pool domains (fun pool ->
        let store = E.Store.open_ store in
        let srv = E.Service.create ~max_inflight ~pool ~store listener in
        let stop _ = E.Service.stop srv in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Format.printf "simctl serve: listening on %s (store %s, %d records, %d domains)@."
          (match (socket, port) with
          | Some path, _ -> path
          | _, Some port -> Printf.sprintf "127.0.0.1:%d" port
          | _ -> assert false)
          (E.Store.dir store) (E.Store.record_count store) (Pool.num_workers pool);
        Format.print_flush ();
        E.Service.run srv;
        Format.printf "simctl serve: drained, shutting down@.");
    match socket with
    | Some path when Sys.file_exists path -> Sys.remove path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running campaign service: concurrent campaign/status/bound queries as \
             JSONL over a socket, fair-queued across clients, warm queries answered \
             from the store with zero simulations.")
    Term.(const action $ socket_t $ port_t $ store_req_t $ domains_t $ max_inflight_t)

let query_connect ~socket ~port =
  match (socket, port) with
  | Some path, None -> E.Service.Client.connect_unix path
  | None, Some port -> E.Service.Client.connect_tcp port
  | _ -> endpoint_error ()

let print_response = function
  | E.Protocol.Pong -> Format.printf "pong@."
  | E.Protocol.Bye -> Format.printf "server shutting down@."
  | E.Protocol.Overload { inflight; limit } ->
      Format.eprintf "overloaded: %d points in flight (limit %d); retry later@." inflight
        limit;
      exit 3
  | E.Protocol.Error msg ->
      Format.eprintf "error: %s@." msg;
      exit 1
  | E.Protocol.Progress _ -> ()
  | E.Protocol.Campaign_result r ->
      Format.printf "campaign: %d points in %.2fs (%d simulated, %d baselines, %d cached)@."
        r.total_points r.elapsed_s r.simulated r.baselines r.loaded;
      List.iter
        (fun (c : E.Protocol.cell_summary) ->
          Format.printf "  %s%-24s mean waste %.4f  (q1 %.4f  median %.4f  q3 %.4f)@."
            (match c.x with None -> "" | Some x -> Printf.sprintf "x=%-8g " x)
            c.strategy c.mean c.q1 c.median c.q3)
        r.cells
  | E.Protocol.Status_result r ->
      Format.printf "records: total=%d cached=%d missing=%d@." r.total r.cached r.missing
  | E.Protocol.Bound_result r ->
      Format.printf "lambda: %.6g@." r.lambda;
      Format.printf "I/O fraction F: %.4f@." r.io_fraction;
      print_bound_waste ~waste:r.waste r.outside
  | E.Protocol.Stats_result r ->
      Format.printf
        "store: hits=%d misses=%d loads=%d writes=%d evictions=%d indexed=%d@."
        r.store.E.Store.hits r.store.E.Store.misses r.store.E.Store.loads
        r.store.E.Store.writes r.store.E.Store.evictions r.indexed;
      Format.printf "service: inflight_points=%d served=%d@." r.inflight r.served

let query_one ~socket ~port ?on_progress req =
  let conn = query_connect ~socket ~port in
  Fun.protect
    ~finally:(fun () -> E.Service.Client.close conn)
    (fun () -> print_response (E.Service.Client.request ?on_progress conn req))

let query_spec_req_t =
  Arg.(required & opt (some string) None & info [ "spec" ] ~docv:"FILE"
         ~doc:"Campaign spec JSON file to send.")

let query_cmd =
  let simple name ~doc req =
    let action socket port = query_one ~socket ~port req in
    Cmd.v (Cmd.info name ~doc) Term.(const action $ socket_t $ port_t)
  in
  let campaign_q =
    let progress_t =
      Arg.(value & flag & info [ "progress" ]
             ~doc:"Stream and render per-point progress frames while the campaign runs.")
    in
    let action socket port spec_file progress =
      let spec = load_spec spec_file in
      let on_progress = if progress then Some render_progress else None in
      query_one ~socket ~port ?on_progress (E.Protocol.Campaign { spec; progress })
    in
    Cmd.v
      (Cmd.info "campaign"
         ~doc:"Run (or warm-load) a campaign on the service; cold cells are simulated \
               server-side, warm ones answered from the store.")
      Term.(const action $ socket_t $ port_t $ query_spec_req_t $ progress_t)
  in
  let status_q =
    let action socket port spec_file =
      query_one ~socket ~port (E.Protocol.Status { spec = load_spec spec_file })
    in
    Cmd.v (Cmd.info "status" ~doc:"Ask the service how much of a campaign its store covers.")
      Term.(const action $ socket_t $ port_t $ query_spec_req_t)
  in
  let bound_q =
    let action socket port platform = query_one ~socket ~port (E.Protocol.Bound { platform }) in
    Cmd.v (Cmd.info "bound" ~doc:"Theorem 1 lower bound, served.")
      Term.(const action $ socket_t $ port_t $ platform_t)
  in
  Cmd.group
    (Cmd.info "query"
       ~doc:"Client for a running `simctl serve` daemon: campaign, status, bound, \
             ping, stats, shutdown.")
    [
      campaign_q;
      status_q;
      bound_q;
      simple "ping" ~doc:"Liveness check." E.Protocol.Ping;
      simple "stats" ~doc:"Store and admission counters." E.Protocol.Stats;
      simple "shutdown" ~doc:"Stop the daemon cleanly (drains in-flight campaigns)."
        E.Protocol.Shutdown;
    ]

let main =
  Cmd.group
    (Cmd.info "simctl" ~version:"1.0.0"
       ~doc:"Cooperative checkpointing for shared HPC platforms — simulator and experiments.")
    [
      run_cmd; campaign_cmd; serve_cmd; query_cmd;
      figure_cmd "fig1" ~doc:"Waste ratio vs bandwidth (paper Figure 1)" E.Fig1.spec;
      figure_cmd "fig2" ~doc:"Waste ratio vs node MTBF (paper Figure 2)" E.Fig2.spec;
      fig3_cmd; table1_cmd; bound_cmd; ablation_cmd; check_cmd; report_cmd;
    ]

let () = exit (Cmd.eval main)
