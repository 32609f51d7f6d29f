(* Tests for the experiments layer: Monte Carlo aggregation through the
   campaign engine, figure data structures and rendering, the fig1/fig2
   sweeps (at toy scale) and the fig3 bandwidth search. *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Strategy = Cocheck_core.Strategy
module Units = Cocheck_util.Units
module Stats = Cocheck_util.Stats
module E = Cocheck_experiments

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tiny_platform ?(bandwidth = 1.0) ?(mtbf_years = 0.1) () =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:bandwidth
    ~node_mtbf_s:(Units.years mtbf_years)

let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

(* ------------------------------------------------------------------ *)
(* Monte Carlo protocol (Spec + Runner)                                 *)
(* ------------------------------------------------------------------ *)

(* One unswept campaign on the toy platform: cell results in strategy
   order. *)
let measure ~pool ~strategies ~reps ~seed =
  let spec =
    E.Spec.make ~name:"mc" ~platform:(tiny_platform ()) ~classes:[ tiny_class ] ~strategies
      ~reps ~seed ~days:0.5 ()
  in
  (E.Runner.run ~pool spec).E.Runner.results

let test_measure_shapes () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let ms =
        measure ~pool
          ~strategies:[ Strategy.Least_waste; Strategy.Ordered Strategy.Daly ]
          ~reps:4 ~seed:1
      in
      Alcotest.(check int) "one measurement per strategy" 2 (List.length ms);
      List.iter
        (fun (m : E.Runner.cell_result) ->
          Alcotest.(check int) "4 ratios" 4 (Array.length m.ratios);
          Alcotest.(check int) "stats over 4" 4 m.stats.Stats.n;
          Array.iter
            (fun r -> Alcotest.(check bool) "ratio finite and >= 0" true (r >= 0.0 && Float.is_finite r))
            m.ratios)
        ms)

let check_same_ratios msg a b =
  List.iter2
    (fun (ma : E.Runner.cell_result) (mb : E.Runner.cell_result) ->
      Array.iteri (fun i r -> checkf msg ~eps:0.0 r mb.ratios.(i)) ma.ratios)
    a b

let test_measure_deterministic () =
  let run () =
    Pool.with_pool ~num_domains:0 (fun pool ->
        measure ~pool ~strategies:[ Strategy.Least_waste ] ~reps:3 ~seed:11)
  in
  check_same_ratios "identical ratios" (run ()) (run ())

let test_measure_parallel_matches_sequential () =
  let run domains =
    Pool.with_pool ~num_domains:domains (fun pool ->
        measure ~pool ~strategies:[ Strategy.Ordered_nb Strategy.Daly ] ~reps:4 ~seed:2)
  in
  check_same_ratios "scheduling-independent" (run 0) (run 2)

let test_rep_seed_distinct () =
  let s = E.Spec.rep_seed ~seed:42 ~rep:0 in
  let s' = E.Spec.rep_seed ~seed:42 ~rep:1 in
  Alcotest.(check bool) "rep seeds distinct" true (s <> s')

let test_mean_waste_positive () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      match
        measure ~pool ~strategies:[ Strategy.Oblivious (Strategy.Fixed 600.0) ] ~reps:2 ~seed:1
      with
      | [ m ] ->
          let w = m.E.Runner.stats.Stats.mean in
          Alcotest.(check bool) "positive waste" true (w > 0.0 && w < 1.5)
      | _ -> Alcotest.fail "one strategy, one result")

(* ------------------------------------------------------------------ *)
(* Figures                                                              *)
(* ------------------------------------------------------------------ *)

let sample_figure () =
  let stats = Stats.candlestick [| 0.1; 0.2; 0.3 |] in
  {
    E.Figures.id = "figX";
    title = "test";
    x_label = "x";
    y_label = "y";
    log_x = false;
    series =
      [
        { E.Figures.label = "sim"; points = [ E.Figures.sim_point ~x:1.0 stats ] };
        {
          E.Figures.label = "model";
          points =
            [ E.Figures.analytic_point ~x:1.0 0.15; E.Figures.analytic_point ~x:2.0 0.1 ];
        };
      ];
  }

let test_figure_table () =
  let t = E.Figures.to_table (sample_figure ()) in
  let s = Cocheck_util.Table.render t in
  Alcotest.(check bool) "has sim column" true (contains s "sim");
  Alcotest.(check bool) "missing point dashed" true (contains s "-");
  Alcotest.(check bool) "candlestick range shown" true (contains s "[")

let test_figure_csv () =
  let csv = E.Figures.to_csv (sample_figure ()) in
  Alcotest.(check bool) "header" true (contains csv "series,x,mean");
  Alcotest.(check bool) "analytic rows have empty stats" true (contains csv "model,2,0.1,,,,,,")

let test_figure_render () =
  let s = E.Figures.render (sample_figure ()) in
  Alcotest.(check bool) "contains title" true (contains s "FIGX");
  Alcotest.(check bool) "contains legend" true (contains s "model")

let test_series_value_at () =
  let fig = sample_figure () in
  Alcotest.(check (option (float 1e-9))) "analytic lookup" (Some 0.15)
    (E.Figures.series_value_at fig ~label:"model" ~x:1.0);
  Alcotest.(check (option (float 1e-9))) "sim lookup is mean" (Some 0.2)
    (E.Figures.series_value_at fig ~label:"sim" ~x:1.0);
  Alcotest.(check (option (float 1e-9))) "missing" None
    (E.Figures.series_value_at fig ~label:"nope" ~x:1.0)

(* ------------------------------------------------------------------ *)
(* Theoretical model / Table1                                           *)
(* ------------------------------------------------------------------ *)

let bound_waste platform = (snd (E.Runner.bound platform)).Cocheck_core.Lower_bound.waste

let test_theoretical_waste_decreases_with_bandwidth () =
  let w b = bound_waste (Platform.cielo ~bandwidth_gbs:b ()) in
  Alcotest.(check bool) "monotone" true (w 160.0 < w 40.0)

let test_sweep_includes_theory_series () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let spec =
        E.Spec.make ~name:"sweep" ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
          ~strategies:[ Strategy.Least_waste ] ~axis:(E.Spec.Bandwidth_gbs [ 1.0 ]) ~reps:2
          ~seed:1 ~days:0.5 ()
      in
      let series = (E.Runner.to_figure (E.Runner.run ~pool spec)).E.Figures.series in
      Alcotest.(check int) "strategy + theory" 2 (List.length series);
      let labels = List.map (fun s -> s.E.Figures.label) series in
      Alcotest.(check bool) "theory labelled" true (List.mem "Theoretical Model" labels))

let test_table1_renders_workload_and_derived () =
  let s = E.Table1.render () in
  List.iter
    (fun frag -> Alcotest.(check bool) (frag ^ " present") true (contains s frag))
    [ "EAP"; "VPIC"; "Daly period"; "Workload" ]

(* ------------------------------------------------------------------ *)
(* Fig3 search                                                          *)
(* ------------------------------------------------------------------ *)

let test_fig3_theoretical_monotone_in_mtbf () =
  let b y =
    E.Fig3.min_bandwidth_theoretical ~node_mtbf_years:y ~target_efficiency:0.8 ()
  in
  Alcotest.(check bool) "more reliable needs less bandwidth" true (b 25.0 < b 5.0)

let test_fig3_theoretical_monotone_in_target () =
  let b e = E.Fig3.min_bandwidth_theoretical ~node_mtbf_years:10.0 ~target_efficiency:e () in
  Alcotest.(check bool) "higher target needs more bandwidth" true (b 0.9 > b 0.7)

let test_fig3_theoretical_consistent_with_bound () =
  (* At the returned bandwidth the bound must be at or below the target
     waste (and above it slightly below the returned bandwidth). *)
  let y = 10.0 and target = 0.8 in
  let b = E.Fig3.min_bandwidth_theoretical ~node_mtbf_years:y ~target_efficiency:target () in
  let waste_at beta =
    let platform = Platform.prospective ~bandwidth_gbs:beta ~node_mtbf_years:y () in
    bound_waste platform
  in
  Alcotest.(check bool) "feasible at b" true (waste_at b <= (1.0 -. target) +. 1e-6);
  Alcotest.(check bool) "infeasible below b" true
    (waste_at (b /. 1.05) > (1.0 -. target) -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let test_period_scaling_study () =
  let s = E.Ablations.period_scaling () in
  Alcotest.(check int) "six gamma rows" 6 (List.length s.E.Ablations.rows);
  (* gamma = 1 minimises the analytic waste per class. *)
  let waste g name =
    Option.get (E.Ablations.value s ~row:(Printf.sprintf "gamma=%g" g) ~col:(name ^ " waste"))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " min at Daly") true
        (waste 1.0 name <= waste 0.5 name && waste 1.0 name <= waste 2.0 name))
    [ "EAP"; "LAP"; "Silverton"; "VPIC" ];
  (* Pressure scales as 1/gamma. *)
  let f g = Option.get (E.Ablations.value s ~row:(Printf.sprintf "gamma=%g" g) ~col:"EAP F") in
  Alcotest.(check (float 1e-6)) "pressure halves at gamma 2" (f 1.0 /. 2.0) (f 2.0)

let test_interference_ablation_small () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let s =
        E.Ablations.interference_model ~pool ~reps:2 ~seed:3 ~days:4.0 ()
      in
      let v alpha col =
        Option.get (E.Ablations.value s ~row:(Printf.sprintf "alpha=%g" alpha) ~col)
      in
      (* Token strategies never run concurrent transfers, so alpha cannot
         hurt them; Oblivious it must hurt. *)
      Alcotest.(check bool) "oblivious hurt by alpha" true
        (v 1.0 "Oblivious-Daly" > v 0.0 "Oblivious-Daly");
      Alcotest.(check bool) "least-waste immune" true
        (Float.abs (v 1.0 "Least-Waste" -. v 0.0 "Least-Waste") < 0.02))

let test_optimal_periods_ablation_small () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let s =
        E.Ablations.optimal_periods ~pool ~reps:2 ~seed:4 ~days:4.0 ()
      in
      let v col = Option.get (E.Ablations.value s ~row:"30 GB/s" ~col) in
      (* In the constrained regime the Theorem-1 periods should not do
         worse than Daly under the same scheduler (tolerance for the tiny
         Monte Carlo). *)
      Alcotest.(check bool)
        (Printf.sprintf "optimal %.3f <= daly %.3f + 0.05" (v "Ordered-NB-Optimal")
           (v "Ordered-NB-Daly"))
        true
        (v "Ordered-NB-Optimal" <= v "Ordered-NB-Daly" +. 0.05);
      Alcotest.(check bool) "bound column present" true (v "Theoretical Model" > 0.0))

let test_fixed_period_ablation_small () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let s =
        E.Ablations.fixed_period ~pool ~reps:2 ~seed:4 ~days:4.0 ()
      in
      let v row col = Option.get (E.Ablations.value s ~row ~col) in
      (* On the saturated 40 GB/s PFS, longer fixed periods relieve the
         blocking strategy. *)
      Alcotest.(check bool) "longer period helps oblivious" true
        (v "4.00h" "Oblivious-Fixed" < v "30.00m" "Oblivious-Fixed"))

let test_ablation_render () =
  let s = E.Ablations.period_scaling () in
  Alcotest.(check bool) "renders" true
    (String.length (Cocheck_util.Table.render s.E.Ablations.table) > 100);
  Alcotest.(check (option (float 0.0))) "missing lookup" None
    (E.Ablations.value s ~row:"nope" ~col:"EAP F")

(* ------------------------------------------------------------------ *)
(* End-to-end small figures                                             *)
(* ------------------------------------------------------------------ *)

(* A figure preset restricted to a small axis, at toy scale. *)
let small_figure ~pool (preset : E.Spec.t) axis =
  E.Runner.to_figure
    (E.Runner.run ~pool { preset with E.Spec.axis; reps = 2; seed = 1; days = 3.0 })

let test_fig1_small_end_to_end () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let fig = small_figure ~pool E.Fig1.spec (E.Spec.Bandwidth_gbs [ 40.0; 160.0 ]) in
      Alcotest.(check int) "8 series (7 strategies + theory)" 8
        (List.length fig.E.Figures.series);
      (* The headline shape: at 160 GB/s, Least-Waste is no worse than
         Oblivious-Fixed. *)
      let v label =
        Option.get (E.Figures.series_value_at fig ~label ~x:160.0)
      in
      Alcotest.(check bool) "LW <= Oblivious-Fixed at 160" true
        (v "Least-Waste" <= v "Oblivious-Fixed");
      let csv = E.Figures.to_csv fig in
      Alcotest.(check bool) "csv has data rows" true
        (List.length (String.split_on_char '\n' csv) > 10))

let test_fig2_small_end_to_end () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let fig = small_figure ~pool E.Fig2.spec (E.Spec.Mtbf_years [ 2.0; 50.0 ]) in
      Alcotest.(check bool) "log x" true fig.E.Figures.log_x;
      (* Fixed blocking strategies stay saturated at high MTBF while Daly
         variants improve dramatically (the paper's central Figure 2
         observation). *)
      let v label x = Option.get (E.Figures.series_value_at fig ~label ~x) in
      Alcotest.(check bool) "Ordered-Fixed stuck high at 50y" true
        (v "Ordered-Fixed" 50.0 > 0.5);
      Alcotest.(check bool) "Ordered-Daly improves with MTBF" true
        (v "Ordered-Daly" 50.0 < v "Ordered-Daly" 2.0))

(* A preset saved as JSON and run as a campaign renders the same figure
   as the figure's own entry point. *)
let test_preset_json_renders_as_run () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let via_json (preset : E.Spec.t) =
        match E.Spec.of_json (E.Spec.to_json { preset with E.Spec.reps = 2; days = 3.0 }) with
        | Ok spec -> E.Figures.render (E.Runner.to_figure (E.Runner.run ~pool spec))
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check string) "fig1"
        (E.Figures.render (E.Fig1.run ~pool ~reps:2 ~days:3.0 ()))
        (via_json E.Fig1.spec);
      Alcotest.(check string) "fig2"
        (E.Figures.render (E.Fig2.run ~pool ~reps:2 ~days:3.0 ()))
        (via_json E.Fig2.spec))

(* ------------------------------------------------------------------ *)
(* Timeline                                                             *)
(* ------------------------------------------------------------------ *)

let test_timeline_reconstruction () =
  (* Hand-built trace: 10-node job from t=0 to t=50, 20-node job from t=25
     to t=75, horizon 100, 4 buckets of 25.
     Busy node-time: [0,25): 10*25 + ... job2 starts at 25.
       bucket0 [0,25):   job1 only            -> 10
       bucket1 [25,50):  job1 + job2          -> 30
       bucket2 [50,75):  job2 only            -> 20
       bucket3 [75,100): empty                -> 0 *)
  let trace = Cocheck_sim.Trace.create () in
  let ev time inst kind = Cocheck_sim.Trace.record trace { Cocheck_sim.Trace.time; job = inst; inst; kind } in
  ev 0.0 1 (Cocheck_sim.Trace.Job_started { restarts = 0; nodes = 10 });
  ev 25.0 2 (Cocheck_sim.Trace.Job_started { restarts = 0; nodes = 20 });
  ev 50.0 1 Cocheck_sim.Trace.Job_completed;
  ev 75.0 2 (Cocheck_sim.Trace.Job_killed { lost_work = 5.0 });
  let tl = E.Timeline.build ~trace ~total_nodes:40 ~horizon:100.0 ~buckets:4 () in
  let means = List.map (fun b -> b.E.Timeline.mean_nodes_busy) tl.E.Timeline.buckets in
  Alcotest.(check (list (float 1e-9))) "bucket means" [ 10.0; 30.0; 20.0; 0.0 ] means;
  checkf "mean utilization" ~eps:1e-9 (15.0 /. 40.0) (E.Timeline.mean_utilization tl);
  let kills = List.map (fun b -> b.E.Timeline.kills) tl.buckets in
  Alcotest.(check (list int)) "kill in last bucket" [ 0; 0; 0; 1 ] kills;
  Alcotest.(check bool) "render works" true (String.length (E.Timeline.render tl) > 50)

let test_timeline_from_simulation () =
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Units.years 2.0)
  in
  let cfg =
    Cocheck_sim.Config.make ~platform ~classes:[ tiny_class ]
      ~strategy:Cocheck_core.Strategy.Least_waste ~seed:2 ~days:1.0 ~with_failures:false ()
  in
  let trace = Cocheck_sim.Trace.create () in
  let r = Cocheck_sim.Simulator.run ~observe:(Cocheck_sim.Trace.record trace) cfg in
  let tl =
    E.Timeline.build ~trace ~total_nodes:64 ~horizon:cfg.Cocheck_sim.Config.horizon ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "timeline utilization %.2f high" (E.Timeline.mean_utilization tl))
    true
    (E.Timeline.mean_utilization tl > 0.7);
  let total_starts =
    List.fold_left (fun acc b -> acc + b.E.Timeline.starts) 0 tl.E.Timeline.buckets
  in
  Alcotest.(check int) "all starts bucketed" r.Cocheck_sim.Simulator.jobs_started total_starts

let test_timeline_truncated_trace () =
  (* A ring of 3 keeps the last three of five events: the first start is
     gone, so the timeline is refused, naming the two dropped events. *)
  let trace = Cocheck_sim.Trace.create ~capacity:3 () in
  let ev time inst kind = Cocheck_sim.Trace.record trace { Cocheck_sim.Trace.time; job = inst; inst; kind } in
  ev 0.0 1 (Cocheck_sim.Trace.Job_started { restarts = 0; nodes = 10 });
  ev 10.0 2 (Cocheck_sim.Trace.Job_started { restarts = 0; nodes = 20 });
  ev 20.0 1 Cocheck_sim.Trace.Input_done;
  ev 30.0 1 Cocheck_sim.Trace.Job_completed;
  ev 40.0 2 Cocheck_sim.Trace.Job_completed;
  Alcotest.(check int) "two evicted" 2 (Cocheck_sim.Trace.dropped trace);
  match E.Timeline.build ~trace ~total_nodes:40 ~horizon:100.0 ~buckets:4 () with
  | _ -> Alcotest.fail "a truncated trace was accepted"
  | exception Invalid_argument m ->
      Alcotest.(check bool) ("names the dropped count: " ^ m) true
        (contains m "dropped 2 events")

let test_shape_checks_reduced () =
  (* Deterministic given (reps, days, seed): the full harness passes all 12
     claims at this reduced scale too. *)
  Pool.with_pool ~num_domains:0 (fun pool ->
      let checks = E.Shape_checks.run ~pool ~reps:3 ~seed:42 ~days:8.0 () in
      Alcotest.(check int) "twelve claims" 12 (List.length checks);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (c.E.Shape_checks.id ^ ": " ^ c.detail)
            true c.passed)
        checks;
      Alcotest.(check bool) "render mentions verdicts" true
        (String.length (E.Shape_checks.render checks) > 500))

let () =
  Alcotest.run "cocheck.experiments"
    [
      ( "montecarlo",
        [
          Alcotest.test_case "measurement shapes" `Quick test_measure_shapes;
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "parallel = sequential" `Quick test_measure_parallel_matches_sequential;
          Alcotest.test_case "rep seeds distinct" `Quick test_rep_seed_distinct;
          Alcotest.test_case "mean waste positive" `Quick test_mean_waste_positive;
        ] );
      ( "figures",
        [
          Alcotest.test_case "table" `Quick test_figure_table;
          Alcotest.test_case "csv" `Quick test_figure_csv;
          Alcotest.test_case "render" `Quick test_figure_render;
          Alcotest.test_case "series lookup" `Quick test_series_value_at;
        ] );
      ( "sweep-table1",
        [
          Alcotest.test_case "theory monotone in bandwidth" `Quick
            test_theoretical_waste_decreases_with_bandwidth;
          Alcotest.test_case "theory series included" `Quick test_sweep_includes_theory_series;
          Alcotest.test_case "table1 renders" `Quick test_table1_renders_workload_and_derived;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "monotone in MTBF" `Quick test_fig3_theoretical_monotone_in_mtbf;
          Alcotest.test_case "monotone in target" `Quick test_fig3_theoretical_monotone_in_target;
          Alcotest.test_case "consistent with bound" `Quick test_fig3_theoretical_consistent_with_bound;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "period scaling" `Quick test_period_scaling_study;
          Alcotest.test_case "interference (small)" `Slow test_interference_ablation_small;
          Alcotest.test_case "optimal periods (small)" `Slow test_optimal_periods_ablation_small;
          Alcotest.test_case "fixed period (small)" `Slow test_fixed_period_ablation_small;
          Alcotest.test_case "render + lookup" `Quick test_ablation_render;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "hand-built reconstruction" `Quick test_timeline_reconstruction;
          Alcotest.test_case "from simulation" `Quick test_timeline_from_simulation;
          Alcotest.test_case "truncated trace refused" `Quick test_timeline_truncated_trace;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fig1 (toy scale)" `Slow test_fig1_small_end_to_end;
          Alcotest.test_case "fig2 (toy scale)" `Slow test_fig2_small_end_to_end;
          Alcotest.test_case "preset via JSON renders as run" `Slow
            test_preset_json_renders_as_run;
          Alcotest.test_case "shape checks (reduced)" `Slow test_shape_checks_reduced;
        ] );
    ]
