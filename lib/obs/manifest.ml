module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module Failure_trace = Cocheck_sim.Failure_trace
module Strategy = Cocheck_core.Strategy
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class

let schema = "cocheck.manifest"
let version = 1

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let platform_to_json (p : Platform.t) =
  Json.Obj
    [
      ("name", Json.String p.Platform.name);
      ("nodes", Json.Int p.nodes);
      ("mem_per_node_gb", Json.Float p.mem_per_node_gb);
      ("bandwidth_gbs", Json.Float p.bandwidth_gbs);
      ("node_mtbf_s", Json.Float p.node_mtbf_s);
    ]

let app_class_to_json (c : App_class.t) =
  Json.Obj
    [
      ("name", Json.String c.App_class.name);
      ("workload_pct", Json.Float c.workload_pct);
      ("walltime_s", Json.Float c.walltime_s);
      ("nodes", Json.Int c.nodes);
      ("input_pct", Json.Float c.input_pct);
      ("output_pct", Json.Float c.output_pct);
      ("ckpt_pct", Json.Float c.ckpt_pct);
      ("steady_io_gb", Json.Float c.steady_io_gb);
    ]

let failure_dist_to_json (d : Failure_trace.distribution) =
  match d with
  | Failure_trace.Exponential -> Json.Obj [ ("law", Json.String "exponential") ]
  | Failure_trace.Weibull { shape } ->
      Json.Obj [ ("law", Json.String "weibull"); ("shape", Json.Float shape) ]
  | Failure_trace.Lognormal { sigma } ->
      Json.Obj [ ("law", Json.String "lognormal"); ("sigma", Json.Float sigma) ]

let level_to_json (l : Config.level) =
  match l with
  | Config.Snapshot s ->
      Json.Obj
        [
          ("kind", Json.String "snapshot");
          ("period_s", Json.Float s.Config.sl_period_s);
          ("cost_s", Json.Float s.sl_cost_s);
          ("recovery_s", Json.Float s.sl_recovery_s);
          ("survival", Json.Float s.sl_survival);
        ]
  | Config.Buffer b ->
      Json.Obj
        ([
           ("kind", Json.String "buffer");
           ("capacity_gb", Json.Float b.Config.bl_capacity_gb);
           ("bandwidth_gbs", Json.Float b.bl_bandwidth_gbs);
         ]
        @ (match b.bl_flush_gbs with
          | Some f -> [ ("flush_gbs", Json.Float f) ]
          | None -> [])
        @ [ ("survival", Json.Float b.bl_survival) ])

let multilevel_to_json (m : Config.multilevel) =
  match m.Config.levels with
  | [ Config.Snapshot s ] ->
      (* The legacy two-level shape, byte-identical so pre-hierarchy
         manifests and campaign digests are stable. *)
      Json.Obj
        [
          ("local_period_s", Json.Float s.Config.sl_period_s);
          ("local_cost_s", Json.Float s.sl_cost_s);
          ("local_recovery_s", Json.Float s.sl_recovery_s);
          ("soft_fraction", Json.Float s.sl_survival);
        ]
  | levels -> Json.Obj [ ("levels", Json.List (List.map level_to_json levels)) ]

let config_to_json (cfg : Config.t) =
  let optional name = function None -> [] | Some j -> [ (name, j) ] in
  Json.Obj
    ([
       ("platform", platform_to_json cfg.Config.platform);
       ("classes", Json.List (List.map app_class_to_json cfg.classes));
       ("strategy", Json.String (Strategy.name cfg.strategy));
       ("seed", Json.Int cfg.seed);
       ("min_duration_s", Json.Float cfg.min_duration_s);
       ("seg_start", Json.Float cfg.seg_start);
       ("seg_end", Json.Float cfg.seg_end);
       ("horizon", Json.Float cfg.horizon);
       ("fill_factor", Json.Float cfg.fill_factor);
       ("with_failures", Json.Bool cfg.with_failures);
       ("failure_dist", failure_dist_to_json cfg.failure_dist);
       ("interference_alpha", Json.Float cfg.interference_alpha);
     ]
    @ optional "multilevel" (Option.map multilevel_to_json cfg.multilevel))

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

(* A tiny error monad keeps the field extraction flat. *)
let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "manifest: missing or invalid field %S" name)

let f_float name j = field name Json.to_float_opt j
let f_int name j = field name Json.to_int_opt j
let f_string name j = field name Json.to_string_opt j

let platform_of_json j =
  let* name = f_string "name" j in
  let* nodes = f_int "nodes" j in
  let* mem_per_node_gb = f_float "mem_per_node_gb" j in
  let* bandwidth_gbs = f_float "bandwidth_gbs" j in
  let* node_mtbf_s = f_float "node_mtbf_s" j in
  Ok { Platform.name; nodes; mem_per_node_gb; bandwidth_gbs; node_mtbf_s }

let app_class_of_json j =
  let* name = f_string "name" j in
  let* workload_pct = f_float "workload_pct" j in
  let* walltime_s = f_float "walltime_s" j in
  let* nodes = f_int "nodes" j in
  let* input_pct = f_float "input_pct" j in
  let* output_pct = f_float "output_pct" j in
  let* ckpt_pct = f_float "ckpt_pct" j in
  let* steady_io_gb = f_float "steady_io_gb" j in
  Ok
    {
      App_class.name;
      workload_pct;
      walltime_s;
      nodes;
      input_pct;
      output_pct;
      ckpt_pct;
      steady_io_gb;
    }

let failure_dist_of_json j =
  let* law = f_string "law" j in
  match law with
  | "exponential" -> Ok Failure_trace.Exponential
  | "weibull" ->
      let* shape = f_float "shape" j in
      Ok (Failure_trace.Weibull { shape })
  | "lognormal" ->
      let* sigma = f_float "sigma" j in
      Ok (Failure_trace.Lognormal { sigma })
  | other -> Error (Printf.sprintf "manifest: unknown failure law %S" other)

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* v = f x in
      let* vs = collect f rest in
      Ok (v :: vs)

let level_of_json l =
  let* kind = f_string "kind" l in
  match kind with
  | "snapshot" ->
      let* sl_period_s = f_float "period_s" l in
      let* sl_cost_s = f_float "cost_s" l in
      let* sl_recovery_s = f_float "recovery_s" l in
      let* sl_survival = f_float "survival" l in
      Ok (Config.Snapshot { Config.sl_period_s; sl_cost_s; sl_recovery_s; sl_survival })
  | "buffer" ->
      let* bl_capacity_gb = f_float "capacity_gb" l in
      let* bl_bandwidth_gbs = f_float "bandwidth_gbs" l in
      let bl_flush_gbs = Option.bind (Json.member "flush_gbs" l) Json.to_float_opt in
      let* bl_survival = f_float "survival" l in
      Ok (Config.Buffer { Config.bl_capacity_gb; bl_bandwidth_gbs; bl_flush_gbs; bl_survival })
  | other -> Error (Printf.sprintf "manifest: unknown level kind %S" other)

let multilevel_of_json m =
  match Json.member "levels" m with
  | Some _ ->
      let* level_list = field "levels" Json.to_list_opt m in
      let* levels = collect level_of_json level_list in
      Ok { Config.levels }
  | None ->
      (* Legacy two-level shape: a single node-local snapshot level. *)
      let* local_period_s = f_float "local_period_s" m in
      let* local_cost_s = f_float "local_cost_s" m in
      let* local_recovery_s = f_float "local_recovery_s" m in
      let* soft_fraction = f_float "soft_fraction" m in
      Ok
        (Config.local_level ~period_s:local_period_s ~cost_s:local_cost_s
           ~recovery_s:local_recovery_s ~soft_fraction)

(* ------------------------------------------------------------------ *)
(* Result summary and assembly                                          *)
(* ------------------------------------------------------------------ *)

let named_floats pairs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) pairs)

let result_to_json (r : Simulator.result) =
  Json.Obj
    [
      ("progress_ns", Json.Float r.Simulator.progress_ns);
      ("waste_ns", Json.Float r.waste_ns);
      ("enrolled_ns", Json.Float r.enrolled_ns);
      ( "by_kind",
        Json.Obj
          (List.map (fun (k, v) -> (Metrics.kind_name k, Json.Float v)) r.by_kind) );
      ("failures_seen", Json.Int r.failures_seen);
      ("failures_hitting_jobs", Json.Int r.failures_hitting_jobs);
      ("ckpts_committed", Json.Int r.ckpts_committed);
      ("ckpts_aborted", Json.Int r.ckpts_aborted);
      ("restarts", Json.Int r.restarts);
      ("jobs_started", Json.Int r.jobs_started);
      ("jobs_completed", Json.Int r.jobs_completed);
      ("events", Json.Int r.events);
      ("specs_total", Json.Int r.specs_total);
      ("bb_absorbed", Json.Int r.bb_absorbed);
      ("bb_spilled", Json.Int r.bb_spilled);
      ("utilization", Json.Float r.utilization);
      ("io_busy_fraction", Json.Float r.io_busy_fraction);
      ("mean_ckpt_interval_s", named_floats r.mean_ckpt_interval);
      ("mean_ckpt_wait_s", named_floats r.mean_ckpt_wait);
      ( "restarts_by_class",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.restarts_by_class) );
      ("lost_work_by_class", named_floats r.lost_work_by_class);
    ]

(* The tracer's phase slices, one entry per span name in first-recorded
   order: durations summed, slices counted. [None] when there are none. *)
let timings tracer =
  let phases = Hashtbl.create 8 and order = ref [] in
  List.iter
    (function
      | Span.Slice { cat = "phase"; name; dur_us; _ } ->
          let us, calls =
            match Hashtbl.find_opt phases name with
            | Some p -> p
            | None ->
                order := name :: !order;
                (0.0, 0)
          in
          Hashtbl.replace phases name (us +. dur_us, calls + 1)
      | _ -> ())
    (Tracing.events tracer);
  if !order = [] then None
  else
    let entries =
      List.rev_map
        (fun name ->
          let us, calls = Hashtbl.find phases name in
          (name, us /. 1e6, calls))
        !order
    in
    let entry (name, seconds, calls) =
      Json.Obj
        [ ("name", Json.String name); ("seconds", Json.Float seconds); ("calls", Json.Int calls) ]
    in
    let total_s = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 entries in
    Some
      (Json.Obj [ ("phases", Json.List (List.map entry entries)); ("total_s", Json.Float total_s) ])

let make ~cfg ?(tracer = Tracing.disabled) ?result ?registry ?(extra = []) () =
  let optional name = function None -> [] | Some j -> [ (name, j) ] in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("version", Json.Int version);
       ("config", config_to_json cfg);
     ]
    @ optional "timings" (timings tracer)
    @ optional "result" (Option.map result_to_json result)
    @ optional "instrumentation" (Option.map Histogram.registry_to_json registry)
    @ extra)

let write ~path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string_pretty j))

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Json.of_string s
  | exception Sys_error e -> Error e
