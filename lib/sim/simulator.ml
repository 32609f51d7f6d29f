(* The facade: configuration → periods → world construction → event loop →
   result extraction. The event web itself lives in the layered modules —
   Sim_types (state), Arbiter (token arbitration), Ckpt_path (request →
   commit/abort), Lifecycle (start/compute/finish), Failure_path
   (kill/restart). *)

open Cocheck_util
open Sim_types
module Engine = Cocheck_des.Engine
module Strategy = Cocheck_core.Strategy
module Daly = Cocheck_core.Daly
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Jobgen = Cocheck_model.Jobgen
module Io = Io_subsystem

type result = {
  progress_ns : float;
  waste_ns : float;
  enrolled_ns : float;
  by_kind : (Metrics.kind * float) list;
  failures_seen : int;
  failures_hitting_jobs : int;
  ckpts_committed : int;
  ckpts_aborted : int;
  restarts : int;
  jobs_started : int;
  jobs_completed : int;
  events : int;
  mean_ckpt_interval : (string * float) list;
  specs_total : int;
  bb_absorbed : int;
  bb_spilled : int;
  mean_ckpt_wait : (string * float) list;
  utilization : float;
  io_busy_fraction : float;
  restarts_by_class : (string * int) list;
  lost_work_by_class : (string * float) list;
      (* raw node-seconds rolled back per class, not segment-clipped *)
  token_grants : int;
  candidates_scored : int;
  flushes_started : int;
  flushes_completed : int;
}

type snapshot = {
  snap_time : float;
  free_nodes : int;
  used_nodes : int;
  queued_jobs : int;
  running_insts : int;
  computing : int;
  in_io : int;
  waiting : int;
  token_queue : int;
  token_busy : bool;
  io_flows : int;
  io_rate_gbs : float;
  bandwidth_gbs : float;
  progress_ns : float;
  waste_ns : float;
  waste_by_kind : (Metrics.kind * float) list;
}

let generate_specs (cfg : Config.t) =
  let rng = Rng.substream (Rng.create ~seed:cfg.seed) "jobs" in
  Jobgen.generate ~rng ~platform:cfg.platform ~classes:cfg.classes
    ~min_duration_s:cfg.min_duration_s ~fill_factor:cfg.fill_factor ()

(* ------------------------------------------------------------------ *)
(* Time-series probes.                                                  *)
(* ------------------------------------------------------------------ *)

let snapshot_of w =
  (* Ledger entries settle lazily in the flow scheduler. Settling them here
     would split their spans and move the run's float sums, so the probe
     adds what both subsystems have accrued but not yet settled from a
     scratch ledger instead. *)
  let seg_start, seg_end = Metrics.segment w.metrics in
  let accrued = Metrics.create ~seg_start ~seg_end in
  Io.pending w.io accrued;
  (match w.hier with
  | Some h -> Ckpt_hierarchy.iter_pools h (fun io -> Io.pending io accrued)
  | None -> ());
  let computing = ref 0 and in_io = ref 0 and waiting = ref 0 in
  Hashtbl.iter
    (fun _ inst ->
      match inst.activity with
      | Computing | Computing_pending -> incr computing
      | Doing_io -> incr in_io
      | Waiting_io | Waiting_ckpt | Local_ckpt | Local_recovery -> incr waiting)
    w.insts;
  {
    snap_time = w.clock.now;
    free_nodes = Node_pool.free_count w.pool;
    used_nodes = Node_pool.used_count w.pool;
    queued_jobs = Submit_queue.length w.queue;
    running_insts = Hashtbl.length w.insts;
    computing = !computing;
    in_io = !in_io;
    waiting = !waiting;
    token_queue = Arbiter.pending w;
    token_busy = w.token_busy;
    io_flows = Io.active_count w.io;
    io_rate_gbs = Io.current_rate_gbs w.io;
    bandwidth_gbs = bandwidth w;
    progress_ns = Metrics.progress_ns w.metrics +. Metrics.progress_ns accrued;
    waste_ns = Metrics.waste_ns w.metrics +. Metrics.waste_ns accrued;
    waste_by_kind =
      List.map2
        (fun (k, settled) (_, pending) -> (k, settled +. pending))
        (Metrics.by_kind w.metrics) (Metrics.by_kind accrued);
  }

(* Probes ride the engine calendar at t = dt, 2dt, ... through one
   registered source; read-only, so they cannot perturb the schedule or
   the result (FIFO ordering at equal times aside, the probe touches no
   simulation state). *)
let schedule_probes w ~dt observe =
  if not (Float.is_finite dt && dt > 0.0) then
    invalid_arg "Simulator.run: sample interval must be positive";
  let src = ref Engine.no_source in
  let arm () =
    ignore (Engine.schedule_src w.engine ~kind:Ev_kind.probe ~time:(w.clock.now +. dt) !src)
  in
  src :=
    Engine.source w.engine (fun _ ->
        observe (snapshot_of w);
        if w.clock.now +. dt <= w.cfg.horizon then arm ());
  arm ()

(* ------------------------------------------------------------------ *)
(* Top level.                                                           *)
(* ------------------------------------------------------------------ *)

let finalize w =
  (* The horizon cut: settle transfers, close compute intervals, and count
     still-uncommitted work as progress — it would commit eventually, and
     the exclusion of the final day keeps the bias marginal. The engine
     leaves its clock at the horizon. *)
  let t = w.clock.now in
  let running = Hashtbl.fold (fun _ inst acc -> inst :: acc) w.insts [] in
  List.iter
    (fun inst ->
      close_activity w inst;
      flush_uncommitted w inst Metrics.Work;
      Metrics.record_enrolled w.metrics ~t0:inst.fl.start_time ~t1:t
        ~nodes:inst.spec.Jobgen.nodes)
    running

(* Theorem 1 periods for the configured class mix: one lambda solve per
   run, shared lazily across classes. *)
let optimal_periods (cfg : Config.t) =
  let counts =
    Cocheck_core.Waste.steady_state_counts ~classes:cfg.classes ~platform:cfg.platform
  in
  let r =
    Cocheck_core.Lower_bound.solve_model ~classes:counts ~platform:cfg.platform ()
  in
  List.map2
    (fun (_, c) p -> (c.App_class.name, p))
    counts r.Cocheck_core.Lower_bound.periods

let period_of w_cfg ~optimal (c : App_class.t) =
  let platform = w_cfg.Config.platform in
  match w_cfg.Config.strategy with
  | Strategy.Baseline -> infinity
  | Strategy.Oblivious r | Strategy.Ordered r | Strategy.Ordered_nb r -> (
      match r with
      | Strategy.Fixed p -> p
      | Strategy.Daly -> Daly.period_for c ~platform
      | Strategy.Optimal -> List.assoc c.App_class.name (Lazy.force optimal))
  | Strategy.Least_waste | Strategy.Greedy_exposure -> Daly.period_for c ~platform

let run ?specs ?observe ?sample ?on_engine (cfg : Config.t) =
  Config.validate cfg;
  let specs = match specs with Some s -> s | None -> generate_specs cfg in
  let classes = Array.of_list cfg.classes in
  let engine = Engine.create () in
  (* Observability wiring point: the caller sees the engine before the
     first event is scheduled (attach_stats, tracing tick hooks). The
     callback must not schedule or pop events. *)
  (match on_engine with Some f -> f engine | None -> ());
  let metrics = Metrics.create ~seg_start:cfg.seg_start ~seg_end:cfg.seg_end in
  let sharing =
    match cfg.strategy with
    | Strategy.Baseline -> `Unshared
    | _ when cfg.interference_alpha > 0.0 -> `Degraded cfg.interference_alpha
    | _ -> `Linear
  in
  let io =
    Io.create ~engine ~metrics ~bandwidth_gbs:cfg.platform.Platform.bandwidth_gbs ~sharing
  in
  (* Split the multilevel spec into its two storage kinds: snapshot levels
     drive the local-tick machinery, buffer levels build the checkpoint
     storage hierarchy (inert under Baseline). *)
  let snap =
    match cfg.multilevel with
    | None -> [||]
    | Some m ->
        Array.of_list
          (List.filter_map
             (function Config.Snapshot s -> Some s | Config.Buffer _ -> None)
             m.Config.levels)
  in
  let hier =
    match (cfg.strategy, cfg.multilevel) with
    | Strategy.Baseline, _ | _, None -> None
    | _, Some m -> (
        match
          List.filter_map
            (function Config.Buffer b -> Some b | Config.Snapshot _ -> None)
            m.Config.levels
        with
        | [] -> None
        | bufs -> Some (Ckpt_hierarchy.create ~engine ~metrics ~pfs:io bufs))
  in
  (* Created before the [w] literal so the arbiter (built inside it) and
     the submit/grant driver recycle through the same stack. *)
  let req_free = req_free_create () in
  let w =
    {
      cfg;
      classes;
      engine;
      clock = Engine.clock engine;
      metrics;
      io;
      pool = Node_pool.create ~nodes:cfg.platform.Platform.nodes;
      periods =
        (let optimal = lazy (optimal_periods cfg) in
         Array.map (fun c -> period_of cfg ~optimal c) classes);
      ckpt_nominals =
        Array.map (fun c -> App_class.ckpt_time c ~platform:cfg.platform) classes;
      uses_token = Strategy.uses_token cfg.strategy;
      ckpt_enabled = cfg.strategy <> Strategy.Baseline;
      arbiter =
        Arbiter.of_strategy cfg.strategy
          ~node_mtbf_s:cfg.platform.Platform.node_mtbf_s
          ~bandwidth_gbs:cfg.platform.Platform.bandwidth_gbs ~free:req_free ();
      req_free;
      inst_free = inst_free_create ();
      live = live_slots_create ();
      queue =
        Submit_queue.of_array
          ~nodes:(fun e -> e.e_spec.Jobgen.nodes)
          (Array.map
             (fun s ->
               {
                 e_spec = s;
                 e_remaining = s.Jobgen.work_s;
                 e_restart = Fresh;
                 e_has_ckpt = false;
                 e_restarts = 0;
               })
             specs);
      insts = Hashtbl.create 64;
      observe;
      soft_rng = Rng.substream (Rng.create ~seed:cfg.seed) "failure-type";
      hier;
      snap;
      token_busy = false;
      next_inst = 0;
      h_grant_io = unwired;
      h_grant_ckpt = unwired;
      interval_stats = Array.map (fun _ -> Stats.running_create ()) classes;
      ckpt_wait_stats = Array.map (fun _ -> Stats.running_create ()) classes;
      restarts_by_class = Array.make (Array.length classes) 0;
      lost_ns_by_class = Array.make (Array.length classes) 0.0;
      failures_seen = 0;
      failures_hitting_jobs = 0;
      ckpts_committed = 0;
      ckpts_aborted = 0;
      restarts = 0;
      jobs_started = 0;
      jobs_completed = 0;
    }
  in
  (* Wire the late-bound continuations before the first event fires. *)
  w.h_grant_io <- Lifecycle.grant_io w;
  w.h_grant_ckpt <- Ckpt_path.grant_ckpt w;
  if cfg.with_failures then begin
    let rng = Rng.substream (Rng.create ~seed:cfg.seed) "failures" in
    let trace =
      Failure_trace.create ~rng ~nodes:cfg.platform.Platform.nodes
        ~node_mtbf_s:cfg.platform.Platform.node_mtbf_s
        ~distribution:cfg.failure_dist ()
    in
    Failure_path.schedule_failures w trace
  end;
  (match sample with
  | Some (dt, observe) -> schedule_probes w ~dt observe
  | None -> ());
  Lifecycle.try_start w;
  Engine.run ~until:cfg.horizon engine;
  finalize w;
  let arb = Arbiter.stats w in
  {
    progress_ns = Metrics.progress_ns metrics;
    waste_ns = Metrics.waste_ns metrics;
    enrolled_ns = Metrics.enrolled_ns metrics;
    by_kind = Metrics.by_kind metrics;
    failures_seen = w.failures_seen;
    failures_hitting_jobs = w.failures_hitting_jobs;
    ckpts_committed = w.ckpts_committed;
    ckpts_aborted = w.ckpts_aborted;
    restarts = w.restarts;
    jobs_started = w.jobs_started;
    jobs_completed = w.jobs_completed;
    events = Engine.events_processed engine;
    mean_ckpt_interval =
      Array.to_list
        (Array.mapi
           (fun i c ->
             (c.App_class.name, Stats.running_mean w.interval_stats.(i)))
           classes);
    specs_total = Array.length specs;
    bb_absorbed = (match w.hier with Some h -> Ckpt_hierarchy.writes_absorbed h | None -> 0);
    bb_spilled = (match w.hier with Some h -> Ckpt_hierarchy.writes_spilled h | None -> 0);
    mean_ckpt_wait =
      Array.to_list
        (Array.mapi
           (fun i c -> (c.App_class.name, Stats.running_mean w.ckpt_wait_stats.(i)))
           classes);
    utilization =
      Metrics.enrolled_ns metrics
      /. (float_of_int cfg.platform.Platform.nodes *. (cfg.seg_end -. cfg.seg_start));
    io_busy_fraction =
      Io.transferred_gb io /. (cfg.platform.Platform.bandwidth_gbs *. cfg.horizon);
    restarts_by_class =
      Array.to_list
        (Array.mapi (fun i c -> (c.App_class.name, w.restarts_by_class.(i))) classes);
    lost_work_by_class =
      Array.to_list
        (Array.mapi (fun i c -> (c.App_class.name, w.lost_ns_by_class.(i))) classes);
    token_grants = arb.arb_granted;
    candidates_scored = arb.arb_scored;
    flushes_started =
      (match w.hier with Some h -> Ckpt_hierarchy.flushes_started h | None -> 0);
    flushes_completed =
      (match w.hier with Some h -> Ckpt_hierarchy.flushes_completed h | None -> 0);
  }

let waste_ratio ~(strategy : result) ~(baseline : result) =
  if baseline.progress_ns <= 0.0 then nan else strategy.waste_ns /. baseline.progress_ns

let efficiency ~strategy ~baseline = 1.0 -. waste_ratio ~strategy ~baseline
