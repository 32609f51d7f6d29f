(* Integration tests for the full simulator: end-to-end runs on a small
   synthetic platform (fast, precisely checkable) and on Cielo (the paper's
   scenario, checked for ordering and invariants). *)

module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Apex = Cocheck_model.Apex
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module Units = Cocheck_util.Units

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

(* A 64-node toy platform: 1 GB/node, 1 GB/s PFS. One 16-node class with
   10-minute fixed checkpoints of 8 GB (8 s commits), so four jobs run
   side by side with mild I/O load (F ~ 0.05). *)
let tiny_platform ?(bandwidth = 1.0) ?(mtbf_years = 2.0) () =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:bandwidth
    ~node_mtbf_s:(Units.years mtbf_years)

let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

let tiny_cfg ?(strategy = Strategy.Ordered_nb (Strategy.Fixed 600.0)) ?(days = 1.0)
    ?(with_failures = false) ?(seed = 1) () =
  Config.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ] ~strategy ~seed ~days
    ~with_failures ()

let total_of r k = List.assoc k r.Simulator.by_kind

(* ------------------------------------------------------------------ *)
(* Failure-free invariants                                              *)
(* ------------------------------------------------------------------ *)

let test_baseline_no_waste () =
  let r = Simulator.run (tiny_cfg ~strategy:Strategy.Baseline ()) in
  checkf "baseline wastes nothing" 0.0 r.Simulator.waste_ns;
  Alcotest.(check bool) "baseline makes progress" true (r.progress_ns > 0.0);
  Alcotest.(check int) "no checkpoints" 0 r.ckpts_committed;
  Alcotest.(check int) "no failures" 0 r.failures_seen;
  Alcotest.(check int) "no restarts" 0 r.restarts

let test_no_failures_means_no_loss () =
  List.iter
    (fun strategy ->
      let r = Simulator.run (tiny_cfg ~strategy ()) in
      checkf (Strategy.name strategy ^ ": no lost work") 0.0 (total_of r Metrics.Lost_work);
      checkf (Strategy.name strategy ^ ": no recovery") 0.0 (total_of r Metrics.Recovery_io);
      Alcotest.(check int) (Strategy.name strategy ^ ": no restarts") 0 r.Simulator.restarts;
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": checkpoints happen")
        true (r.ckpts_committed > 0))
    Strategy.paper_seven

let test_conservation_progress_plus_waste_is_enrolled () =
  List.iter
    (fun strategy ->
      let r = Simulator.run (tiny_cfg ~strategy ~with_failures:true ()) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: progress+waste=enrolled (%.6g vs %.6g)"
           (Strategy.name strategy)
           (r.Simulator.progress_ns +. r.waste_ns)
           r.enrolled_ns)
        true
        (Cocheck_util.Numerics.fequal ~eps:1e-6
           (r.Simulator.progress_ns +. r.waste_ns)
           r.enrolled_ns))
    (Strategy.Baseline :: Strategy.paper_seven)

let test_deterministic_replay () =
  let cfg = tiny_cfg ~strategy:Strategy.Least_waste ~with_failures:true () in
  let a = Simulator.run cfg and b = Simulator.run cfg in
  checkf "progress identical" ~eps:0.0 a.Simulator.progress_ns b.Simulator.progress_ns;
  checkf "waste identical" ~eps:0.0 a.waste_ns b.waste_ns;
  Alcotest.(check int) "ckpts identical" a.ckpts_committed b.ckpts_committed;
  Alcotest.(check int) "restarts identical" a.restarts b.restarts;
  Alcotest.(check int) "events identical" a.events b.events

let test_fixed_period_respected_uncontended () =
  (* Fixed 600 s period, 8 s commits, mild load: the commit-to-commit
     interval must sit near the period. *)
  let r = Simulator.run (tiny_cfg ()) in
  let mean = List.assoc "toy" r.Simulator.mean_ckpt_interval in
  Alcotest.(check bool)
    (Printf.sprintf "interval %.0f near 600" mean)
    true
    (mean >= 595.0 && mean < 700.0)

let test_daly_period_respected_uncontended () =
  (* A class whose Daly period is short relative to its walltime. With
     nodes=16 and mtbf_years=0.05 -> mu_i ~ 98612 s; C = 8 s -> P ~ 1256 s. *)
  let platform = tiny_platform ~mtbf_years:0.05 () in
  let cfg =
    Config.make ~platform ~classes:[ tiny_class ]
      ~strategy:(Strategy.Ordered_nb Strategy.Daly) ~seed:1 ~days:1.0
      ~with_failures:false ()
  in
  let expected =
    Cocheck_core.Daly.period_for tiny_class ~platform
  in
  let r = Simulator.run cfg in
  let mean = List.assoc "toy" r.Simulator.mean_ckpt_interval in
  Alcotest.(check bool)
    (Printf.sprintf "interval %.0f near Daly %.0f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.15 *. expected)

let test_ckpt_count_matches_period () =
  (* One job at a time per 16-node slot, 2 h of work, P = 600 s: each job
     commits roughly work/P ~ 12 checkpoints. *)
  let r = Simulator.run (tiny_cfg ~days:1.0 ()) in
  let per_job = float_of_int r.Simulator.ckpts_committed /. float_of_int r.jobs_started in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f ckpts/job in [8, 13]" per_job)
    true
    (per_job >= 8.0 && per_job <= 13.0)

let test_ordered_regular_io_undilated () =
  (* Exclusive-token strategies transfer at full bandwidth: regular I/O
     must show zero dilation (waiting shows up as Wait instead). *)
  List.iter
    (fun strategy ->
      let r = Simulator.run (tiny_cfg ~strategy ()) in
      checkf (Strategy.name strategy ^ ": no dilation") 0.0 (total_of r Metrics.Io_dilation))
    [ Strategy.Ordered (Strategy.Fixed 600.0); Strategy.Ordered_nb (Strategy.Fixed 600.0);
      Strategy.Least_waste ]

let test_oblivious_never_waits () =
  let r = Simulator.run (tiny_cfg ~strategy:(Strategy.Oblivious (Strategy.Fixed 600.0)) ()) in
  checkf "oblivious has no token waits" 0.0 (total_of r Metrics.Wait)

let test_low_overhead_when_uncontended () =
  (* F ~ 0.05 and no failures: every strategy should keep waste under a
     few percent of baseline progress. *)
  let baseline = Simulator.run (tiny_cfg ~strategy:Strategy.Baseline ()) in
  List.iter
    (fun strategy ->
      let r = Simulator.run (tiny_cfg ~strategy ()) in
      let ratio = Simulator.waste_ratio ~strategy:r ~baseline in
      Alcotest.(check bool)
        (Printf.sprintf "%s waste %.4f < 0.06" (Strategy.name strategy) ratio)
        true
        (ratio < 0.06))
    Strategy.paper_seven

(* ------------------------------------------------------------------ *)
(* Failures                                                             *)
(* ------------------------------------------------------------------ *)

let failure_cfg ?(strategy = Strategy.Ordered_nb (Strategy.Fixed 600.0)) () =
  (* 64 nodes with ~2.7-day node MTBF -> ~1 h system MTBF: failure-heavy. *)
  Config.make
    ~platform:(tiny_platform ~mtbf_years:0.0075 ())
    ~classes:[ tiny_class ] ~strategy ~seed:3 ~days:1.0 ()

let test_failures_cause_restarts_and_recovery () =
  let r = Simulator.run (failure_cfg ()) in
  Alcotest.(check bool) "failures occurred" true (r.Simulator.failures_seen > 0);
  Alcotest.(check bool) "some hit jobs" true (r.failures_hitting_jobs > 0);
  Alcotest.(check int) "every hit restarts" r.failures_hitting_jobs r.restarts;
  Alcotest.(check bool) "recovery I/O recorded" true (total_of r Metrics.Recovery_io > 0.0);
  Alcotest.(check bool) "lost work recorded" true (total_of r Metrics.Lost_work > 0.0)

let test_failures_still_complete_jobs () =
  let r = Simulator.run (failure_cfg ()) in
  Alcotest.(check bool) "jobs complete despite failures" true (r.Simulator.jobs_completed > 0)

let test_more_failures_more_waste () =
  let waste mtbf_years =
    let cfg =
      Config.make
        ~platform:(tiny_platform ~mtbf_years ())
        ~classes:[ tiny_class ]
        ~strategy:(Strategy.Ordered_nb (Strategy.Fixed 600.0))
        ~seed:5 ~days:2.0 ()
    in
    let r = Simulator.run cfg in
    r.Simulator.waste_ns /. r.enrolled_ns
  in
  Alcotest.(check bool) "waste grows as MTBF shrinks" true (waste 0.01 > waste 10.0)

let test_lost_work_bounded_by_period_exposure () =
  (* With a fixed 600 s period and ~6 failures hitting jobs, lost work per
     failure is bounded by the exposure (period + commit + queueing); use a
     generous factor to keep the test robust but meaningful. *)
  let r = Simulator.run (failure_cfg ()) in
  let lost = total_of r Metrics.Lost_work in
  let per_failure = lost /. float_of_int (max 1 r.Simulator.failures_hitting_jobs) in
  (* 16 nodes x (600 s period + slack x4). *)
  Alcotest.(check bool)
    (Printf.sprintf "lost %.0f node-s/failure bounded" per_failure)
    true
    (per_failure < 16.0 *. 2400.0)

let test_aborted_ckpts_only_with_failures () =
  let no_fail = Simulator.run (tiny_cfg ()) in
  Alcotest.(check int) "no aborted commits without failures" 0 no_fail.Simulator.ckpts_aborted

(* ------------------------------------------------------------------ *)
(* Cielo scenario (paper shape checks, single seeds)                    *)
(* ------------------------------------------------------------------ *)

let cielo_run ?(bandwidth = 40.0) ?(mtbf_years = 2.0) ?(days = 10.0) ?(seed = 1) strategy =
  let platform = Platform.cielo ~bandwidth_gbs:bandwidth ~node_mtbf_years:mtbf_years () in
  let cfg s = Config.make ~platform ~strategy:s ~seed ~days () in
  let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
  let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
  let r = Simulator.run ~specs (cfg strategy) in
  (r, baseline)

let test_cielo_high_utilization () =
  let baseline =
    Simulator.run
      (Config.make ~platform:(Platform.cielo ()) ~strategy:Strategy.Baseline ~seed:2
         ~days:10.0 ())
  in
  let seg_ns = Units.days 10.0 *. 17_888.0 in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f >= 0.85"
       (baseline.Simulator.enrolled_ns /. seg_ns))
    true
    (baseline.enrolled_ns >= 0.85 *. seg_ns)

let test_cielo_least_waste_beats_oblivious_fixed () =
  let lw, base = cielo_run Strategy.Least_waste in
  let ob, _ = cielo_run (Strategy.Oblivious (Strategy.Fixed 3600.0)) in
  let r_lw = Simulator.waste_ratio ~strategy:lw ~baseline:base in
  let r_ob = Simulator.waste_ratio ~strategy:ob ~baseline:base in
  Alcotest.(check bool)
    (Printf.sprintf "LW %.3f < Oblivious-Fixed %.3f" r_lw r_ob)
    true (r_lw < r_ob)

let test_cielo_nonblocking_beats_blocking_daly () =
  let nb, base = cielo_run (Strategy.Ordered_nb Strategy.Daly) in
  let bl, _ = cielo_run (Strategy.Ordered Strategy.Daly) in
  Alcotest.(check bool) "NB-Daly <= Ordered-Daly" true
    (Simulator.waste_ratio ~strategy:nb ~baseline:base
    <= Simulator.waste_ratio ~strategy:bl ~baseline:base +. 0.02)

let test_cielo_waste_above_lower_bound () =
  (* No simulated strategy may beat Theorem 1 by a margin (small Monte
     Carlo fluctuations around the bound are expected and the paper sees
     them too). *)
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  let counts =
    Cocheck_core.Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform
  in
  let bound =
    (Cocheck_core.Lower_bound.solve_model ~classes:counts ~platform ()).Cocheck_core
    .Lower_bound
    .waste
  in
  List.iter
    (fun strategy ->
      let r, base = cielo_run strategy in
      let ratio = Simulator.waste_ratio ~strategy:r ~baseline:base in
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.3f >= bound %.3f - 0.1" (Strategy.name strategy) ratio
           bound)
        true
        (ratio >= bound -. 0.1))
    Strategy.paper_seven

let test_cielo_bandwidth_helps_daly_strategies () =
  let at bandwidth =
    let r, base = cielo_run ~bandwidth (Strategy.Oblivious Strategy.Daly) in
    Simulator.waste_ratio ~strategy:r ~baseline:base
  in
  Alcotest.(check bool) "waste(160) < waste(40)" true (at 160.0 < at 40.0)

let test_specs_shared_between_runs () =
  let platform = Platform.cielo () in
  let cfg = Config.make ~platform ~strategy:Strategy.Least_waste ~seed:4 ~days:5.0 () in
  let specs = Simulator.generate_specs cfg in
  let r = Simulator.run ~specs cfg in
  Alcotest.(check int) "spec count propagated" (Array.length specs) r.Simulator.specs_total

let test_generate_specs_deterministic () =
  let platform = Platform.cielo () in
  let cfg = Config.make ~platform ~strategy:Strategy.Least_waste ~seed:4 ~days:5.0 () in
  let a = Simulator.generate_specs cfg and b = Simulator.generate_specs cfg in
  Alcotest.(check int) "same count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i s ->
      checkf "same work" ~eps:0.0 s.Cocheck_model.Jobgen.work_s
        b.(i).Cocheck_model.Jobgen.work_s)
    a

let test_ckpt_wait_metrics () =
  (* Oblivious checkpoints start instantly; Ordered's wait under a loaded
     queue is positive. Use a contended tiny scenario: shrink bandwidth so
     the four jobs' commits overlap. *)
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:0.05
      ~node_mtbf_s:(Units.years 2.0)
  in
  let cfg strategy =
    Config.make ~platform ~classes:[ tiny_class ] ~strategy ~seed:1 ~days:1.0
      ~with_failures:false ()
  in
  let oblivious = Simulator.run (cfg (Strategy.Oblivious (Strategy.Fixed 600.0))) in
  Alcotest.(check (float 0.0)) "oblivious zero wait" 0.0
    (List.assoc "toy" oblivious.Simulator.mean_ckpt_wait);
  let ordered = Simulator.run (cfg (Strategy.Ordered (Strategy.Fixed 600.0))) in
  Alcotest.(check bool) "ordered waits under contention" true
    (List.assoc "toy" ordered.Simulator.mean_ckpt_wait > 0.0)

let test_utilization_reported () =
  let r = Simulator.run (tiny_cfg ~strategy:Strategy.Baseline ()) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f in (0.5, 1.0]" r.Simulator.utilization)
    true
    (r.utilization > 0.5 && r.utilization <= 1.0 +. 1e-9)

let test_optimal_periods_stretch_when_constrained () =
  (* At 40 GB/s the Theorem 1 constraint is active: the Optimal rule must
     checkpoint less often than Daly (longer commit-to-commit intervals). *)
  let interval rule =
    let r, _ = cielo_run ~bandwidth:40.0 (Strategy.Ordered_nb rule) in
    List.assoc "EAP" r.Simulator.mean_ckpt_interval
  in
  let daly = interval Strategy.Daly and opt = interval Strategy.Optimal in
  Alcotest.(check bool)
    (Printf.sprintf "optimal interval %.0f > daly %.0f" opt daly)
    true (opt > daly)

let test_optimal_equals_daly_when_slack () =
  (* With abundant bandwidth lambda = 0 and the rules nearly coincide (the
     Optimal rule prices C at the CR-available bandwidth, i.e. total minus
     the regular-I/O demand, so its periods are marginally longer). *)
  let r_daly, _ = cielo_run ~bandwidth:400.0 ~days:5.0 (Strategy.Ordered_nb Strategy.Daly) in
  let r_opt, _ = cielo_run ~bandwidth:400.0 ~days:5.0 (Strategy.Ordered_nb Strategy.Optimal) in
  Alcotest.(check bool)
    (Printf.sprintf "near-identical waste when unconstrained (%.4g vs %.4g)"
       r_daly.Simulator.waste_ns r_opt.Simulator.waste_ns)
    true
    (Float.abs (r_daly.Simulator.waste_ns -. r_opt.Simulator.waste_ns)
    < 0.03 *. r_daly.Simulator.waste_ns)

let test_io_busy_fraction_matches_demand () =
  (* Uncontended toy: four 16-node jobs, each moving input+output+periodic
     checkpoints. The measured device-busy fraction must sit close to the
     nominal demand and strictly inside [0, 1] for token strategies. *)
  let r = Simulator.run (tiny_cfg ()) in
  Alcotest.(check bool)
    (Printf.sprintf "busy fraction %.3f in (0, 1)" r.Simulator.io_busy_fraction)
    true
    (r.io_busy_fraction > 0.0 && r.io_busy_fraction < 1.0);
  (* Nominal checkpoint demand alone: 4 jobs x 8 GB per 600 s on a 1 GB/s
     device -> F ~ 0.053; inputs/outputs add a little. *)
  Alcotest.(check bool)
    (Printf.sprintf "busy fraction %.3f near nominal demand" r.io_busy_fraction)
    true
    (r.io_busy_fraction > 0.03 && r.io_busy_fraction < 0.12)

let test_io_busy_fraction_saturates_when_starved () =
  (* Shrink the bandwidth 50x: the token strategies should now keep the
     device busy most of the time. *)
  let platform = tiny_platform ~bandwidth:0.02 () in
  let cfg =
    Config.make ~platform ~classes:[ tiny_class ]
      ~strategy:(Strategy.Ordered (Strategy.Fixed 600.0)) ~seed:1 ~days:1.0
      ~with_failures:false ()
  in
  let r = Simulator.run cfg in
  Alcotest.(check bool)
    (Printf.sprintf "starved device busy %.3f > 0.7" r.Simulator.io_busy_fraction)
    true
    (r.io_busy_fraction > 0.7 && r.io_busy_fraction <= 1.0 +. 1e-9)

let test_simulation_matches_analytic_eq3 () =
  (* Quantitative pipeline check: a single class with ample bandwidth and
     moderate failures should land near the Equation (3) prediction at the
     Daly period. EAP-like class alone on Cielo at 160 GB/s, 5y MTBF. *)
  let platform = Platform.cielo ~bandwidth_gbs:160.0 ~node_mtbf_years:5.0 () in
  let eap_only = { Apex.eap with App_class.workload_pct = 100.0 } in
  let cfg s =
    Config.make ~platform ~classes:[ eap_only ] ~strategy:s ~seed:3 ~days:20.0 ()
  in
  let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
  let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
  let r = Simulator.run ~specs (cfg (Strategy.Ordered_nb Strategy.Daly)) in
  let simulated = Simulator.waste_ratio ~strategy:r ~baseline in
  let ckpt_s = App_class.ckpt_time eap_only ~platform in
  let mtbf_s = App_class.mtbf eap_only ~platform in
  let analytic =
    Cocheck_core.Waste.job_waste ~ckpt_s
      ~period_s:(Cocheck_core.Daly.period ~ckpt_s ~mtbf_s)
      ~recovery_s:ckpt_s ~mtbf_s
  in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4f within 35%% of analytic %.4f" simulated analytic)
    true
    (Float.abs (simulated -. analytic) < 0.35 *. analytic)

let test_per_class_attribution () =
  let r, _ = cielo_run ~days:6.0 Strategy.Least_waste in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Simulator.restarts_by_class in
  Alcotest.(check int) "per-class restarts sum to total" r.restarts total;
  Alcotest.(check int) "four classes reported" 4 (List.length r.restarts_by_class);
  List.iter
    (fun (name, lost) ->
      Alcotest.(check bool) (name ^ " lost work non-negative") true (lost >= 0.0))
    r.lost_work_by_class;
  (* Every class occupies nodes throughout, so with ~1 h system MTBF over
     6 days each must record some restarts; the 66%-share EAP must record a
     healthy number (it absorbs most failures on average, though short
     segments let other classes occasionally edge ahead). *)
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool) (name ^ " saw restarts") true (n > 0))
    r.restarts_by_class;
  Alcotest.(check bool) "EAP absorbs a large share" true
    (List.assoc "EAP" r.restarts_by_class > r.restarts / 8)

let test_waste_ratio_nan_on_empty_baseline () =
  let fake =
    let r = Simulator.run (tiny_cfg ~strategy:Strategy.Baseline ()) in
    { r with Simulator.progress_ns = 0.0 }
  in
  let r = Simulator.run (tiny_cfg ()) in
  Alcotest.(check bool) "nan flagged" true
    (Float.is_nan (Simulator.waste_ratio ~strategy:r ~baseline:fake))

(* ------------------------------------------------------------------ *)
(* Randomized whole-simulator properties                                *)
(* ------------------------------------------------------------------ *)

let strategy_of_index i =
  List.nth (Strategy.Baseline :: Strategy.paper_seven) (i mod 8)

let test_random_scenario_invariants =
  (* Random toy scenarios across all strategies, with and without burst
     buffers and two-level checkpointing: every run must conserve
     node-seconds, report non-negative buckets, and replay identically. *)
  QCheck.Test.make ~name:"random_scenarios_conserve_and_replay" ~count:40
    QCheck.(
      quad small_int (int_range 0 7) (pair (float_range 0.2 3.0) (float_range 0.002 0.2))
        (pair bool bool))
    (fun (seed, strat_idx, (bandwidth, mtbf_years), (with_bb, with_ml)) ->
      let strategy = strategy_of_index strat_idx in
      let platform =
        Platform.make ~name:"fuzz" ~nodes:48 ~mem_per_node_gb:1.0
          ~bandwidth_gbs:bandwidth ~node_mtbf_s:(Units.years mtbf_years)
      in
      let klass =
        App_class.make ~name:"fuzz" ~workload_pct:100.0 ~walltime_s:(Units.hours 1.5)
          ~nodes:12 ~input_pct:5.0 ~output_pct:15.0 ~ckpt_pct:40.0 ()
      in
      let burst_buffer =
        if with_bb then
          Some { Cocheck_sim.Config.capacity_gb = 30.0; bandwidth_gbs = 10.0 }
        else None
      in
      let multilevel =
        if with_ml then
          Some
            (Config.local_level ~period_s:300.0 ~cost_s:2.0 ~recovery_s:4.0
               ~soft_fraction:0.5)
        else None
      in
      let multilevel =
        match burst_buffer with
        | None -> multilevel
        | Some bb -> Some (Config.with_burst_buffer bb multilevel)
      in
      let cfg =
        Config.make ~platform ~classes:[ klass ] ~strategy ~seed ~days:0.5 ?multilevel ()
      in
      let a = Simulator.run cfg in
      let b = Simulator.run cfg in
      let conserved =
        Cocheck_util.Numerics.fequal ~eps:1e-6 (a.Simulator.progress_ns +. a.waste_ns)
          a.enrolled_ns
      in
      let non_negative =
        List.for_all (fun (_, v) -> v >= 0.0) a.by_kind
        && a.progress_ns >= 0.0 && a.waste_ns >= 0.0
      in
      let replays =
        a.events = b.Simulator.events
        && a.waste_ns = b.waste_ns
        && a.ckpts_committed = b.ckpts_committed
        && a.restarts = b.restarts
      in
      conserved && non_negative && replays)

let () =
  Alcotest.run "cocheck.simulator"
    [
      ( "failure-free",
        [
          Alcotest.test_case "baseline has zero waste" `Quick test_baseline_no_waste;
          Alcotest.test_case "no failures, no loss" `Quick test_no_failures_means_no_loss;
          Alcotest.test_case "node-second conservation" `Quick
            test_conservation_progress_plus_waste_is_enrolled;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "fixed period respected" `Quick test_fixed_period_respected_uncontended;
          Alcotest.test_case "daly period respected" `Quick test_daly_period_respected_uncontended;
          Alcotest.test_case "ckpt count matches period" `Quick test_ckpt_count_matches_period;
          Alcotest.test_case "token I/O undilated" `Quick test_ordered_regular_io_undilated;
          Alcotest.test_case "oblivious never waits" `Quick test_oblivious_never_waits;
          Alcotest.test_case "low overhead uncontended" `Quick test_low_overhead_when_uncontended;
        ] );
      ( "failures",
        [
          Alcotest.test_case "restarts and recovery" `Quick test_failures_cause_restarts_and_recovery;
          Alcotest.test_case "jobs complete despite failures" `Quick test_failures_still_complete_jobs;
          Alcotest.test_case "waste grows with failure rate" `Quick test_more_failures_more_waste;
          Alcotest.test_case "lost work bounded" `Quick test_lost_work_bounded_by_period_exposure;
          Alcotest.test_case "no aborts without failures" `Quick test_aborted_ckpts_only_with_failures;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest ~long:false test_random_scenario_invariants ] );
      ( "cielo",
        [
          Alcotest.test_case "high utilization" `Quick test_cielo_high_utilization;
          Alcotest.test_case "LW beats Oblivious-Fixed" `Quick test_cielo_least_waste_beats_oblivious_fixed;
          Alcotest.test_case "NB beats blocking (Daly)" `Quick test_cielo_nonblocking_beats_blocking_daly;
          Alcotest.test_case "nothing far below the bound" `Quick test_cielo_waste_above_lower_bound;
          Alcotest.test_case "bandwidth helps Daly" `Quick test_cielo_bandwidth_helps_daly_strategies;
          Alcotest.test_case "specs shared" `Quick test_specs_shared_between_runs;
          Alcotest.test_case "specs deterministic" `Quick test_generate_specs_deterministic;
          Alcotest.test_case "waste ratio nan guard" `Quick test_waste_ratio_nan_on_empty_baseline;
          Alcotest.test_case "ckpt wait metrics" `Quick test_ckpt_wait_metrics;
          Alcotest.test_case "utilization reported" `Quick test_utilization_reported;
          Alcotest.test_case "optimal periods stretch" `Quick test_optimal_periods_stretch_when_constrained;
          Alcotest.test_case "optimal = daly when slack" `Quick test_optimal_equals_daly_when_slack;
          Alcotest.test_case "io busy fraction nominal" `Quick test_io_busy_fraction_matches_demand;
          Alcotest.test_case "io busy fraction saturated" `Quick test_io_busy_fraction_saturates_when_starved;
          Alcotest.test_case "per-class attribution" `Quick test_per_class_attribution;
          Alcotest.test_case "matches analytic Eq 3" `Quick test_simulation_matches_analytic_eq3;
        ] );
    ]
