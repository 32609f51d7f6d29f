(* The paper's flagship evaluation scenario, end to end: the LANL APEX
   workload (EAP, LAP, Silverton, VPIC) on Cielo with a contended 40 GB/s
   parallel file system and 2-year node MTBF. Runs a small Monte Carlo for
   all seven strategies, prints candlesticks and the waste breakdown of the
   best and worst strategies, and compares everything against the Theorem 1
   lower bound.

   This is a miniature of Figure 1's leftmost column (x = 40 GB/s):
   expect the blocking Fixed strategies near 0.9, the blocking Daly ones
   near 0.8, and the cooperative non-blocking ones near the bound. *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module Apex = Cocheck_model.Apex
module Strategy = Cocheck_core.Strategy
module Waste = Cocheck_core.Waste
module Lower_bound = Cocheck_core.Lower_bound
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module E = Cocheck_experiments
module Stats = Cocheck_util.Stats
module Table = Cocheck_util.Table

let reps = 10
let days = 20.0

let () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  Format.printf "Scenario: %a@." Platform.pp platform;
  Format.printf "Workload: 4 APEX classes, %d-day segments, %d replications@.@."
    (int_of_float days) reps;

  (* The analytic reference. *)
  let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform in
  let bound = Lower_bound.solve_model ~classes:counts ~platform () in
  Format.printf "Theorem 1 lower bound: waste %.3f (lambda = %.4g, F = %.3f)@.@."
    bound.Lower_bound.waste bound.lambda bound.io_fraction;

  (* Monte Carlo over the seven strategies. *)
  let measurements =
    Pool.with_pool (fun pool ->
        let spec =
          E.Spec.make ~name:"apex-cielo" ~platform ~strategies:Strategy.paper_seven ~reps
            ~seed:7 ~days ()
        in
        (E.Runner.run ~pool spec).E.Runner.results)
  in
  let table =
    Table.create ~headers:[ "Strategy"; "mean"; "d1"; "q1"; "median"; "q3"; "d9" ]
  in
  List.iter
    (fun (m : E.Runner.cell_result) ->
      let c = m.stats in
      Table.add_row table
        ([ Strategy.name m.strategy ]
        @ List.map (Printf.sprintf "%.3f")
            [ c.Stats.mean; c.d1; c.q1; c.median; c.q3; c.d9 ]))
    measurements;
  print_string (Table.render table);

  (* Waste breakdown of the extremes, from one representative run. *)
  let breakdown strategy =
    let cfg s = Config.make ~platform ~strategy:s ~seed:7 ~days () in
    let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
    let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
    let r = Simulator.run ~specs (cfg strategy) in
    Format.printf "@.%s (waste ratio %.3f):@." (Strategy.name strategy)
      (Simulator.waste_ratio ~strategy:r ~baseline);
    List.iter
      (fun (k, v) ->
        if v > 0.0 then
          Format.printf "  %-12s %6.1f%% of enrolled time@." (Metrics.kind_name k)
            (100.0 *. v /. r.enrolled_ns))
      r.by_kind
  in
  breakdown (Strategy.Oblivious (Strategy.Fixed 3600.0));
  breakdown Strategy.Least_waste;
  Format.printf
    "@.Reading: the Fixed blocking strategy spends nearly everything on checkpoint@.";
  Format.printf
    "and recovery traffic through the saturated filesystem; Least-Waste turns most@.";
  Format.printf
    "of that back into work and sits at the Theorem 1 bound for this harsh regime.@."
