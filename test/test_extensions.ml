(* Tests for the extensions beyond the paper's core evaluation: the gamma
   function, non-exponential failure distributions, the adversarial
   (degraded) interference model, the burst-buffer tier, event tracing, the
   period trade-off analysis and confidence intervals. *)

module Engine = Cocheck_des.Engine
module Metrics = Cocheck_sim.Metrics
module Io = Cocheck_sim.Io_subsystem
module Failure_trace = Cocheck_sim.Failure_trace
module Trace = Cocheck_sim.Trace
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Strategy = Cocheck_core.Strategy
module Period_tradeoff = Cocheck_core.Period_tradeoff
module Rng = Cocheck_util.Rng
module Stats = Cocheck_util.Stats
module Units = Cocheck_util.Units
module Numerics = Cocheck_util.Numerics

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

(* ------------------------------------------------------------------ *)
(* Gamma function                                                       *)
(* ------------------------------------------------------------------ *)

let test_gamma_known_values () =
  checkf "gamma(1)" ~eps:1e-12 1.0 (Numerics.gamma 1.0);
  checkf "gamma(5) = 4!" ~eps:1e-9 24.0 (Numerics.gamma 5.0);
  checkf "gamma(0.5) = sqrt pi" ~eps:1e-10 (sqrt Float.pi) (Numerics.gamma 0.5);
  checkf "gamma(1.5)" ~eps:1e-10 (sqrt Float.pi /. 2.0) (Numerics.gamma 1.5)

let test_gamma_recurrence =
  QCheck.Test.make ~name:"gamma_recurrence" ~count:200
    QCheck.(float_range 0.1 30.0)
    (fun x -> Numerics.fequal ~eps:1e-9 (Numerics.gamma (x +. 1.0)) (x *. Numerics.gamma x))

let test_gamma_invalid () =
  Alcotest.(check bool) "non-positive rejected" true
    (match Numerics.log_gamma 0.0 with exception Invalid_argument _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Failure distributions                                                *)
(* ------------------------------------------------------------------ *)

let mean_interarrival distribution =
  let t =
    Failure_trace.create ~rng:(Rng.create ~seed:31) ~nodes:100 ~node_mtbf_s:1e6
      ~distribution ()
  in
  let n = 30_000 in
  let last = ref 0.0 in
  for _ = 1 to n do
    last := (Failure_trace.next t).Failure_trace.time
  done;
  !last /. float_of_int n

let test_weibull_mean_matched () =
  let m = mean_interarrival (Failure_trace.Weibull { shape = 0.7 }) in
  Alcotest.(check bool)
    (Printf.sprintf "weibull(0.7) mean %.0f near 10000" m)
    true
    (Float.abs (m -. 10_000.0) < 700.0)

let test_lognormal_mean_matched () =
  let m = mean_interarrival (Failure_trace.Lognormal { sigma = 1.0 }) in
  Alcotest.(check bool)
    (Printf.sprintf "lognormal mean %.0f near 10000" m)
    true
    (Float.abs (m -. 10_000.0) < 900.0)

let test_weibull_clusters () =
  (* Shape < 1 gives higher inter-arrival variance than exponential at the
     same mean: more clustered failures. *)
  let cv distribution =
    let t =
      Failure_trace.create ~rng:(Rng.create ~seed:5) ~nodes:10 ~node_mtbf_s:1e5
        ~distribution ()
    in
    let r = Stats.running_create () in
    let prev = ref 0.0 in
    for _ = 1 to 20_000 do
      let e = Failure_trace.next t in
      Stats.running_add r (e.Failure_trace.time -. !prev);
      prev := e.time
    done;
    Stats.running_stddev r /. Stats.running_mean r
  in
  Alcotest.(check bool) "weibull(0.6) burstier than exponential" true
    (cv (Failure_trace.Weibull { shape = 0.6 }) > cv Failure_trace.Exponential +. 0.2)

let test_weibull_invalid_shape () =
  Alcotest.(check bool) "shape 0 rejected" true
    (match
       Failure_trace.create ~rng:(Rng.create ~seed:1) ~nodes:1 ~node_mtbf_s:1.0
         ~distribution:(Failure_trace.Weibull { shape = 0.0 }) ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_distribution_names () =
  Alcotest.(check string) "exp" "exponential"
    (Failure_trace.distribution_name Failure_trace.Exponential);
  Alcotest.(check string) "weibull" "weibull(0.7)"
    (Failure_trace.distribution_name (Failure_trace.Weibull { shape = 0.7 }))

(* ------------------------------------------------------------------ *)
(* Degraded interference                                                *)
(* ------------------------------------------------------------------ *)

let mk_io ?(bandwidth = 10.0) ~sharing () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
  (engine, Io.create ~engine ~metrics ~bandwidth_gbs:bandwidth ~sharing)

let test_degraded_two_flows () =
  (* alpha = 0.5, two equal flows: aggregate 10/(1.5) = 6.67, each gets
     3.33 GB/s -> 100 GB takes 30 s. *)
  let engine, io = mk_io ~sharing:(`Degraded 0.5) () in
  let t1 = ref nan in
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t1 := Engine.now engine));
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> ()));
  Engine.run engine;
  checkf "degraded completion" ~eps:1e-6 30.0 !t1

let test_degraded_single_flow_full_speed () =
  let engine, io = mk_io ~sharing:(`Degraded 0.5) () in
  let t1 = ref nan in
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t1 := Engine.now engine));
  Engine.run engine;
  checkf "lone flow undegraded" ~eps:1e-6 10.0 !t1

let test_degraded_zero_alpha_is_linear () =
  let run sharing =
    let engine, io = mk_io ~sharing () in
    let t1 = ref nan in
    ignore
      (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:60.0
         ~on_complete:(fun () -> t1 := Engine.now engine));
    ignore
      (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:60.0
         ~on_complete:(fun () -> ()));
    Engine.run engine;
    !t1
  in
  checkf "alpha 0 = linear" ~eps:1e-9 (run `Linear) (run (`Degraded 0.0))

let test_degraded_simulation_worse () =
  (* The adversarial model can only hurt Oblivious at equal parameters. *)
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:50.0 () in
  let run alpha =
    let cfg s =
      Config.make ~platform ~strategy:s ~seed:2 ~days:5.0 ~interference_alpha:alpha ()
    in
    let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
    let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
    let r = Simulator.run ~specs (cfg (Strategy.Oblivious Strategy.Daly)) in
    Simulator.waste_ratio ~strategy:r ~baseline
  in
  Alcotest.(check bool) "adversarial interference hurts" true (run 1.0 > run 0.0)

(* ------------------------------------------------------------------ *)
(* Burst buffer (the test-side oracle module, test/burst_buffer.ml)      *)
(* ------------------------------------------------------------------ *)

let mk_bb ?(capacity = 100.0) ?(bb_bw = 100.0) ?(pfs_bw = 10.0) () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
  let pfs = Io.create ~engine ~metrics ~bandwidth_gbs:pfs_bw ~sharing:`Linear in
  let bb =
    Burst_buffer.create ~engine ~metrics ~pfs
      { Burst_buffer.capacity_gb = capacity; bandwidth_gbs = bb_bw }
  in
  (engine, metrics, pfs, bb)

let test_bb_write_fast_commit () =
  let engine, _, _, bb = mk_bb () in
  let t = ref nan in
  ignore
    (Burst_buffer.write bb ~owner:7 ~nodes:4 ~volume_gb:50.0 ~on_complete:(fun () ->
         t := Engine.now engine));
  Engine.run engine;
  (* 50 GB at 100 GB/s: committed in 0.5 s, far faster than the 5 s the
     PFS would need. *)
  checkf "commit at BB speed" ~eps:1e-6 0.5 !t

let test_bb_capacity_reserved_and_drained () =
  let engine, _, _, bb = mk_bb ~capacity:60.0 () in
  ignore
    (Burst_buffer.write bb ~owner:1 ~nodes:1 ~volume_gb:50.0
       ~on_complete:(fun () -> ()));
  checkf "reserved at write start" 50.0 (Burst_buffer.used_gb bb);
  Alcotest.(check bool) "second write does not fit" false
    (Burst_buffer.fits bb ~volume_gb:20.0);
  Engine.run engine;
  (* After write (0.5 s) + drain (50 GB at 10 GB/s = 5 s) space frees. *)
  checkf "drained" 0.0 (Burst_buffer.used_gb bb);
  Alcotest.(check int) "no drains pending" 0 (Burst_buffer.drains_pending bb)

let test_bb_write_does_not_fit_spills () =
  let _, _, _, bb = mk_bb ~capacity:10.0 () in
  Alcotest.(check bool) "oversized write returns None" true
    (Burst_buffer.write bb ~owner:1 ~nodes:1 ~volume_gb:20.0
       ~on_complete:(fun () -> ())
    = None);
  Alcotest.(check int) "spill counted by the buffer" 1 (Burst_buffer.writes_spilled bb);
  checkf "no capacity reserved" 0.0 (Burst_buffer.used_gb bb)

let test_bb_residency_lifecycle () =
  let engine, _, _, bb = mk_bb () in
  Alcotest.(check bool) "nothing resident initially" false
    (Burst_buffer.resident_for bb ~owner:3);
  let committed = ref false in
  ignore
    (Burst_buffer.write bb ~owner:3 ~nodes:1 ~volume_gb:40.0
       ~on_complete:(fun () -> committed := true));
  Alcotest.(check bool) "not resident while writing" false
    (Burst_buffer.resident_for bb ~owner:3);
  Engine.run engine;
  Alcotest.(check bool) "write completed" true !committed;
  (* Everything drained by now: residency gone. *)
  Alcotest.(check bool) "drained copies are not resident" false
    (Burst_buffer.resident_for bb ~owner:3)

let test_bb_resident_while_draining () =
  (* Slow PFS: the drain is still running right after the write commits. *)
  let engine, _, _, bb = mk_bb ~pfs_bw:0.001 () in
  let committed_at = ref nan in
  ignore
    (Burst_buffer.write bb ~owner:3 ~nodes:1 ~volume_gb:40.0
       ~on_complete:(fun () -> committed_at := Engine.now engine));
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "committed" true (Float.is_finite !committed_at);
  Alcotest.(check bool) "resident while draining" true
    (Burst_buffer.resident_for bb ~owner:3);
  Alcotest.(check int) "one drain in flight" 1 (Burst_buffer.drains_pending bb)

let test_bb_abort_releases_reservation () =
  let engine, _, _, bb = mk_bb ~bb_bw:1.0 () in
  let flow =
    Option.get
      (Burst_buffer.write bb ~owner:1 ~nodes:1 ~volume_gb:50.0
         ~on_complete:(fun () -> Alcotest.fail "aborted write must not complete"))
  in
  ignore
    (Calendar.at engine ~time:1.0 (fun _ -> Burst_buffer.abort_write bb flow));
  Engine.run engine;
  checkf "reservation released" 0.0 (Burst_buffer.used_gb bb);
  Alcotest.(check bool) "nothing resident" false (Burst_buffer.resident_for bb ~owner:1)

let test_bb_read_requires_residency () =
  let _, _, _, bb = mk_bb () in
  Alcotest.(check bool) "read without residency rejected" true
    (match
       Burst_buffer.read bb ~owner:9 ~nodes:1 ~volume_gb:1.0
         ~on_complete:(fun () -> ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bb_drains_serialize () =
  let engine, _, _, bb = mk_bb ~capacity:1000.0 () in
  for owner = 0 to 3 do
    ignore
      (Burst_buffer.write bb ~owner ~nodes:1 ~volume_gb:50.0
         ~on_complete:(fun () -> ()))
  done;
  (* Writes complete at 2 s (shared 100 GB/s over 4 x 50 GB). Drains then run
     one at a time at 10 GB/s: 4 x 5 s. *)
  Engine.run ~until:3.0 engine;
  Alcotest.(check int) "drains queue up" 4 (Burst_buffer.drains_pending bb);
  Engine.run engine;
  Alcotest.(check int) "all drained" 0 (Burst_buffer.drains_pending bb);
  checkf "space reclaimed" 0.0 (Burst_buffer.used_gb bb)

(* Burst buffer end-to-end (desugared into one hierarchy buffer level): a
   contended scenario where the buffer absorbs the checkpoint traffic. *)
let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

let tiny_platform =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:0.2
    ~node_mtbf_s:(Units.years 2.0)

let bb_spec = { Config.capacity_gb = 64.0; bandwidth_gbs = 8.0 }

let run_tiny ?burst_buffer strategy =
  let multilevel = Option.map (fun bb -> Config.with_burst_buffer bb None) burst_buffer in
  let cfg s =
    Config.make ~platform:tiny_platform ~classes:[ tiny_class ] ~strategy:s ~seed:4
      ~days:1.0 ~with_failures:false ?multilevel ()
  in
  let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
  let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
  let r = Simulator.run ~specs (cfg strategy) in
  (r, Simulator.waste_ratio ~strategy:r ~baseline)

let test_bb_simulation_reduces_waste () =
  let strategy = Strategy.Oblivious (Strategy.Fixed 600.0) in
  let r_without, w_without = run_tiny strategy in
  let r_with, w_with = run_tiny ~burst_buffer:bb_spec strategy in
  Alcotest.(check int) "no absorption without buffer" 0 r_without.Simulator.bb_absorbed;
  Alcotest.(check bool)
    (Printf.sprintf "buffer absorbs commits (%d)" r_with.Simulator.bb_absorbed)
    true
    (r_with.bb_absorbed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "waste drops: %.3f -> %.3f" w_without w_with)
    true (w_with < w_without)

let test_bb_simulation_spills_when_small () =
  (* An 8 GB job checkpoint against a 9 GB buffer: at most one resident
     copy; concurrent committers spill. *)
  let small = { Config.capacity_gb = 9.0; bandwidth_gbs = 8.0 } in
  let r, _ = run_tiny ~burst_buffer:small (Strategy.Oblivious (Strategy.Fixed 600.0)) in
  Alcotest.(check bool) "some spills" true (r.Simulator.bb_spilled > 0);
  Alcotest.(check bool) "some absorbed" true (r.bb_absorbed > 0)

let test_bb_conservation_still_holds () =
  let r, _ = run_tiny ~burst_buffer:bb_spec Strategy.Least_waste in
  Alcotest.(check bool) "progress+waste=enrolled with BB" true
    (Numerics.fequal ~eps:1e-6 (r.Simulator.progress_ns +. r.waste_ns) r.enrolled_ns)

(* ------------------------------------------------------------------ *)
(* Two-level checkpointing                                              *)
(* ------------------------------------------------------------------ *)

let tl_params ?(p = 0.5) () =
  {
    Two_level.local_cost_s = 2.0;
    local_recovery_s = 5.0;
    global_cost_s = 100.0;
    global_recovery_s = 100.0;
    mtbf_s = 1e6;
    soft_fraction = p;
  }

let test_two_level_p0_is_daly () =
  let params = tl_params ~p:0.0 () in
  let _, pg = Two_level.optimal_periods params in
  checkf "global period is Daly" ~eps:1e-9
    (Cocheck_core.Daly.period ~ckpt_s:100.0 ~mtbf_s:1e6)
    pg;
  checkf "optimal = single level" ~eps:1e-9
    (Two_level.single_level_waste params)
    (Two_level.optimal_waste params);
  Alcotest.(check bool) "local level pointless" false (Two_level.worthwhile params)

let test_two_level_periods_formula () =
  let params = tl_params ~p:0.5 () in
  let pl, pg = Two_level.optimal_periods params in
  checkf "local" ~eps:1e-9 (sqrt (2.0 *. 1e6 *. 2.0 /. 0.5)) pl;
  checkf "global" ~eps:1e-9 (sqrt (2.0 *. 1e6 *. 100.0 /. 0.5)) pg

let test_two_level_worthwhile () =
  Alcotest.(check bool) "cheap local + soft failures helps" true
    (Two_level.worthwhile (tl_params ~p:0.5 ()));
  (* Expensive local snapshots are not worth it even with soft failures. *)
  let expensive = { (tl_params ~p:0.1 ()) with Two_level.local_cost_s = 5000.0 } in
  Alcotest.(check bool) "expensive local does not help" false
    (Two_level.worthwhile expensive)

let test_two_level_optimum_is_min =
  QCheck.Test.make ~name:"two_level_optimum_beats_perturbations" ~count:200
    QCheck.(pair (float_range 0.05 0.95) (pair (float_range 0.5 2.0) (float_range 0.5 2.0)))
    (fun (p, (sl, sg)) ->
      let params = tl_params ~p () in
      let pl, pg = Two_level.optimal_periods params in
      let w_opt = Two_level.waste params ~local_period_s:pl ~global_period_s:pg in
      let w_pert =
        Two_level.waste params ~local_period_s:(pl *. sl) ~global_period_s:(pg *. sg)
      in
      w_opt <= w_pert +. 1e-9)

let test_two_level_validation () =
  Alcotest.(check bool) "bad fraction rejected" true
    (match Two_level.validate (tl_params ~p:1.5 ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Simulation side. A failure-heavy toy platform where local snapshots are
   nearly free: two-level CR must cut the waste when failures are soft. *)
let ml_spec ?(soft = 1.0) () =
  Config.local_level ~period_s:120.0 ~cost_s:1.0 ~recovery_s:5.0 ~soft_fraction:soft

let run_ml ?multilevel () =
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Units.years 0.0075)
  in
  let cfg s =
    Config.make ~platform ~classes:[ tiny_class ] ~strategy:s ~seed:5 ~days:1.5
      ?multilevel ()
  in
  let strategy = Strategy.Ordered_nb (Strategy.Fixed 600.0) in
  let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
  let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
  let r = Simulator.run ~specs (cfg strategy) in
  (r, Simulator.waste_ratio ~strategy:r ~baseline)

let test_multilevel_reduces_waste_under_soft_failures () =
  let r0, w0 = run_ml () in
  let r1, w1 = run_ml ~multilevel:(ml_spec ~soft:1.0 ()) () in
  Alcotest.(check (float 0.0)) "no local ckpt time without the level" 0.0
    (List.assoc Cocheck_sim.Metrics.Local_ckpt r0.Simulator.by_kind);
  Alcotest.(check bool) "local snapshots recorded" true
    (List.assoc Cocheck_sim.Metrics.Local_ckpt r1.Simulator.by_kind > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "two-level cuts waste: %.3f -> %.3f" w0 w1)
    true (w1 < w0);
  Alcotest.(check bool) "lost work shrinks" true
    (List.assoc Cocheck_sim.Metrics.Lost_work r1.Simulator.by_kind
    < List.assoc Cocheck_sim.Metrics.Lost_work r0.Simulator.by_kind)

let test_multilevel_hard_failures_unhelped () =
  (* soft_fraction = 0: the local level is pure overhead. *)
  let _, w0 = run_ml () in
  let r1, w1 = run_ml ~multilevel:(ml_spec ~soft:0.0 ()) () in
  Alcotest.(check bool) "snapshots still taken" true
    (List.assoc Cocheck_sim.Metrics.Local_ckpt r1.Simulator.by_kind > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "no benefit, some overhead: %.3f vs %.3f" w1 w0)
    true
    (w1 >= w0 -. 0.02)

let test_multilevel_conservation () =
  let r, _ = run_ml ~multilevel:(ml_spec ~soft:0.5 ()) () in
  Alcotest.(check bool) "progress+waste=enrolled under two-level" true
    (Numerics.fequal ~eps:1e-6 (r.Simulator.progress_ns +. r.waste_ns) r.enrolled_ns)

let test_multilevel_deterministic () =
  let ra, wa = run_ml ~multilevel:(ml_spec ~soft:0.5 ()) () in
  let rb, wb = run_ml ~multilevel:(ml_spec ~soft:0.5 ()) () in
  checkf "waste identical" ~eps:0.0 wa wb;
  Alcotest.(check int) "events identical" ra.Simulator.events rb.Simulator.events

let test_multilevel_validation () =
  let platform =
    Platform.make ~name:"tiny" ~nodes:8 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Units.years 1.0)
  in
  let rejected multilevel =
    match
      Config.make ~platform ~classes:[ tiny_class ] ~strategy:Strategy.Least_waste
        ~multilevel ()
    with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "zero period rejected" true
    (rejected
       (Config.local_level ~period_s:0.0 ~cost_s:1.0 ~recovery_s:5.0 ~soft_fraction:0.5));
  Alcotest.(check bool) "bad survival rejected" true
    (rejected
       (Config.local_level ~period_s:120.0 ~cost_s:1.0 ~recovery_s:5.0 ~soft_fraction:1.5));
  Alcotest.(check bool) "buffer before snapshot rejected" true
    (rejected
       {
         Config.levels =
           [
             Config.Buffer
               {
                 Config.bl_capacity_gb = 100.0;
                 bl_bandwidth_gbs = 10.0;
                 bl_flush_gbs = None;
                 bl_survival = 1.0;
               };
             Config.Snapshot
               {
                 Config.sl_period_s = 120.0;
                 sl_cost_s = 1.0;
                 sl_recovery_s = 5.0;
                 sl_survival = 0.5;
               };
           ];
       });
  Alcotest.(check bool) "burst_buffer rejected beside a buffer level" true
    (match
       Config.with_burst_buffer
         { Config.capacity_gb = 64.0; bandwidth_gbs = 8.0 }
         (Some
            {
              Config.levels =
                [
                  Config.Buffer
                    {
                      Config.bl_capacity_gb = 100.0;
                      bl_bandwidth_gbs = 10.0;
                      bl_flush_gbs = None;
                      bl_survival = 1.0;
                    };
                ];
            })
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace                                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_ring_buffer () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t { Trace.time = float_of_int i; job = i; inst = i; kind = Trace.Input_done }
  done;
  Alcotest.(check int) "keeps capacity" 3 (Trace.length t);
  Alcotest.(check int) "dropped two" 2 (Trace.dropped t);
  Alcotest.(check (list int)) "keeps most recent" [ 3; 4; 5 ]
    (List.map (fun e -> e.Trace.job) (Trace.events t))

let trace_of_run ?(strategy = Strategy.Ordered_nb (Strategy.Fixed 600.0))
    ?(with_failures = false) () =
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Units.years (if with_failures then 0.01 else 2.0))
  in
  let cfg =
    Config.make ~platform ~classes:[ tiny_class ] ~strategy ~seed:6 ~days:1.0
      ~with_failures ()
  in
  let trace = Trace.create () in
  let r = Simulator.run ~observe:(Trace.record trace) cfg in
  (r, trace)

let test_trace_counts_match_result () =
  let r, trace = trace_of_run () in
  let count f = List.length (Trace.of_kind trace ~f) in
  Alcotest.(check int) "commits traced" r.Simulator.ckpts_committed
    (count (function Trace.Ckpt_committed _ -> true | _ -> false));
  Alcotest.(check int) "starts traced" r.jobs_started
    (count (function Trace.Job_started _ -> true | _ -> false));
  Alcotest.(check int) "completions traced" r.jobs_completed
    (count (function Trace.Job_completed -> true | _ -> false))

let test_trace_commit_follows_start () =
  (* Protocol invariant per job: every Ckpt_committed is preceded by a
     Ckpt_started with no other commit in between. *)
  let _, trace = trace_of_run () in
  let jobs =
    List.sort_uniq compare (List.map (fun e -> e.Trace.job) (Trace.events trace))
  in
  List.iter
    (fun job ->
      if job >= 0 then begin
        let open_commit = ref false in
        List.iter
          (fun e ->
            match e.Trace.kind with
            | Trace.Ckpt_started -> open_commit := true
            | Trace.Ckpt_committed _ ->
                Alcotest.(check bool) "commit has matching start" true !open_commit;
                open_commit := false
            | _ -> ())
          (Trace.for_job trace ~job)
      end)
    jobs

let test_trace_times_monotone () =
  let _, trace = trace_of_run ~with_failures:true () in
  let prev = ref neg_infinity in
  List.iter
    (fun e ->
      Alcotest.(check bool) "non-decreasing times" true (e.Trace.time >= !prev);
      prev := e.Trace.time)
    (Trace.events trace)

let test_trace_failures_traced () =
  let r, trace = trace_of_run ~with_failures:true () in
  let failures =
    Trace.of_kind trace ~f:(function Trace.Node_failure _ -> true | _ -> false)
  in
  Alcotest.(check int) "every failure traced" r.Simulator.failures_seen
    (List.length failures);
  let kills = Trace.of_kind trace ~f:(function Trace.Job_killed _ -> true | _ -> false) in
  Alcotest.(check int) "every kill traced" r.restarts (List.length kills)

let test_trace_dump_renders () =
  let _, trace = trace_of_run () in
  let s = Trace.dump ~limit:50 trace in
  Alcotest.(check bool) "dump nonempty" true (String.length s > 100)

(* ------------------------------------------------------------------ *)
(* Period tradeoff                                                      *)
(* ------------------------------------------------------------------ *)

let test_tradeoff_gamma1_is_daly () =
  let p = Period_tradeoff.evaluate ~ckpt_s:100.0 ~mtbf_s:1e6 ~recovery_s:100.0 ~gamma:1.0 in
  checkf "relative waste 1" ~eps:1e-12 1.0 p.Period_tradeoff.relative_waste;
  checkf "relative pressure 1" ~eps:1e-12 1.0 p.relative_pressure;
  checkf "period is Daly" ~eps:1e-9
    (Cocheck_core.Daly.period ~ckpt_s:100.0 ~mtbf_s:1e6)
    p.period_s

let test_tradeoff_halving_is_cheap () =
  (* The Arunagiri observation, quantified: at the Daly optimum the two
     waste terms are equal (a/gamma + a.gamma with a = C/Pdaly), so halving the
     pressure (gamma = 2) costs exactly (0.5 + 2)/2 - 1 = 25 % relative
     waste when R/mu is negligible — a 2x I/O relief for a quarter more
     (already small) waste. *)
  let cost = Period_tradeoff.pressure_halving_cost ~ckpt_s:100.0 ~mtbf_s:1e8 ~recovery_s:100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "halving cost %.3f ~ 0.25" cost)
    true
    (cost > 0.2 && cost < 0.26)

let test_tradeoff_waste_increases_past_one =
  QCheck.Test.make ~name:"waste_increases_for_gamma>1" ~count:200
    QCheck.(pair (float_range 1.0 50.0) (float_range 1.0 50.0))
    (fun (g1, g2) ->
      let lo = Float.min g1 g2 and hi = Float.max g1 g2 in
      let w g =
        (Period_tradeoff.evaluate ~ckpt_s:50.0 ~mtbf_s:1e7 ~recovery_s:50.0 ~gamma:g)
          .Period_tradeoff.waste
      in
      w lo <= w hi +. 1e-12)

let test_tradeoff_max_gamma () =
  let g =
    Period_tradeoff.max_gamma_within ~ckpt_s:100.0 ~mtbf_s:1e7 ~recovery_s:100.0
      ~budget:0.125
  in
  Alcotest.(check bool) (Printf.sprintf "gamma %.2f in (1.5, 3)" g) true (g > 1.5 && g < 3.0);
  (* And the waste at that gamma indeed sits at the budget ceiling. *)
  let p = Period_tradeoff.evaluate ~ckpt_s:100.0 ~mtbf_s:1e7 ~recovery_s:100.0 ~gamma:g in
  checkf "budget binding" ~eps:1e-6 1.125 p.Period_tradeoff.relative_waste

let test_tradeoff_zero_budget () =
  checkf "budget 0 pins gamma 1" 1.0
    (Period_tradeoff.max_gamma_within ~ckpt_s:10.0 ~mtbf_s:1e6 ~recovery_s:10.0 ~budget:0.0)

(* ------------------------------------------------------------------ *)
(* Confidence intervals                                                 *)
(* ------------------------------------------------------------------ *)

let test_ci_contains_true_mean () =
  (* 95% CI over exponential samples: check the half-width formula and
     coverage loosely with a fixed seed. *)
  let rng = Rng.create ~seed:8 in
  let xs = Array.init 400 (fun _ -> Cocheck_util.Dist.exponential rng ~mean:5.0) in
  let mean, half = Stats.mean_ci xs in
  Alcotest.(check bool)
    (Printf.sprintf "CI [%.2f +/- %.2f] contains 5" mean half)
    true
    (mean -. half <= 5.0 && 5.0 <= mean +. half)

let test_ci_width_shrinks () =
  let rng = Rng.create ~seed:9 in
  let xs n = Array.init n (fun _ -> Cocheck_util.Dist.normal rng ~mean:0.0 ~stddev:1.0) in
  let _, h_small = Stats.mean_ci (xs 50) in
  let _, h_big = Stats.mean_ci (xs 5000) in
  Alcotest.(check bool) "more samples, tighter CI" true (h_big < h_small)

let test_ci_confidence_ordering () =
  let xs = Array.init 100 float_of_int in
  let _, h90 = Stats.mean_ci ~confidence:0.90 xs in
  let _, h99 = Stats.mean_ci ~confidence:0.99 xs in
  Alcotest.(check bool) "99% wider than 90%" true (h99 > h90)

let test_ci_validation () =
  Alcotest.(check bool) "singleton rejected" true
    (match Stats.mean_ci [| 1.0 |] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "weird confidence rejected" true
    (match Stats.mean_ci ~confidence:0.5 [| 1.0; 2.0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.extensions"
    [
      ( "gamma",
        [
          Alcotest.test_case "known values" `Quick test_gamma_known_values;
          Alcotest.test_case "invalid" `Quick test_gamma_invalid;
        ]
        @ qsuite [ test_gamma_recurrence ] );
      ( "failure-distributions",
        [
          Alcotest.test_case "weibull mean-matched" `Quick test_weibull_mean_matched;
          Alcotest.test_case "lognormal mean-matched" `Quick test_lognormal_mean_matched;
          Alcotest.test_case "weibull clusters" `Quick test_weibull_clusters;
          Alcotest.test_case "invalid shape" `Quick test_weibull_invalid_shape;
          Alcotest.test_case "names" `Quick test_distribution_names;
        ] );
      ( "degraded-interference",
        [
          Alcotest.test_case "two flows degraded" `Quick test_degraded_two_flows;
          Alcotest.test_case "lone flow full speed" `Quick test_degraded_single_flow_full_speed;
          Alcotest.test_case "alpha 0 = linear" `Quick test_degraded_zero_alpha_is_linear;
          Alcotest.test_case "hurts oblivious end-to-end" `Quick test_degraded_simulation_worse;
        ] );
      ( "burst-buffer",
        [
          Alcotest.test_case "fast commit" `Quick test_bb_write_fast_commit;
          Alcotest.test_case "capacity lifecycle" `Quick test_bb_capacity_reserved_and_drained;
          Alcotest.test_case "oversized write spills" `Quick test_bb_write_does_not_fit_spills;
          Alcotest.test_case "residency lifecycle" `Quick test_bb_residency_lifecycle;
          Alcotest.test_case "resident while draining" `Quick test_bb_resident_while_draining;
          Alcotest.test_case "abort releases space" `Quick test_bb_abort_releases_reservation;
          Alcotest.test_case "read requires residency" `Quick test_bb_read_requires_residency;
          Alcotest.test_case "drains serialize" `Quick test_bb_drains_serialize;
          Alcotest.test_case "reduces waste end-to-end" `Quick test_bb_simulation_reduces_waste;
          Alcotest.test_case "spills when small" `Quick test_bb_simulation_spills_when_small;
          Alcotest.test_case "conservation with BB" `Quick test_bb_conservation_still_holds;
        ] );
      ( "two-level",
        [
          Alcotest.test_case "p=0 is Daly" `Quick test_two_level_p0_is_daly;
          Alcotest.test_case "period formulas" `Quick test_two_level_periods_formula;
          Alcotest.test_case "worthwhile" `Quick test_two_level_worthwhile;
          Alcotest.test_case "validation" `Quick test_two_level_validation;
          Alcotest.test_case "sim: soft failures helped" `Quick
            test_multilevel_reduces_waste_under_soft_failures;
          Alcotest.test_case "sim: hard failures unhelped" `Quick
            test_multilevel_hard_failures_unhelped;
          Alcotest.test_case "sim: conservation" `Quick test_multilevel_conservation;
          Alcotest.test_case "sim: deterministic" `Quick test_multilevel_deterministic;
          Alcotest.test_case "config validation" `Quick test_multilevel_validation;
        ]
        @ qsuite [ test_two_level_optimum_is_min ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
          Alcotest.test_case "counts match result" `Quick test_trace_counts_match_result;
          Alcotest.test_case "commit follows start" `Quick test_trace_commit_follows_start;
          Alcotest.test_case "times monotone" `Quick test_trace_times_monotone;
          Alcotest.test_case "failures traced" `Quick test_trace_failures_traced;
          Alcotest.test_case "dump renders" `Quick test_trace_dump_renders;
        ] );
      ( "period-tradeoff",
        [
          Alcotest.test_case "gamma 1 is Daly" `Quick test_tradeoff_gamma1_is_daly;
          Alcotest.test_case "halving pressure is cheap" `Quick test_tradeoff_halving_is_cheap;
          Alcotest.test_case "max gamma within budget" `Quick test_tradeoff_max_gamma;
          Alcotest.test_case "zero budget" `Quick test_tradeoff_zero_budget;
        ]
        @ qsuite [ test_tradeoff_waste_increases_past_one ] );
      ( "confidence-intervals",
        [
          Alcotest.test_case "contains true mean" `Quick test_ci_contains_true_mean;
          Alcotest.test_case "width shrinks with n" `Quick test_ci_width_shrinks;
          Alcotest.test_case "confidence ordering" `Quick test_ci_confidence_ordering;
          Alcotest.test_case "validation" `Quick test_ci_validation;
        ] );
    ]
