(* A single-application study: how the checkpoint period drives waste.

   Takes one application class (EAP on Cielo) and sweeps the checkpoint
   period from minutes to many hours, printing the analytic waste model
   of Equation (3) next to a simulation of the same single-class workload,
   and marking the Young/Daly optimum. Also shows the Arunagiri-style
   trade-off: stretching the period above Daly's sheds I/O pressure much
   faster than it adds waste.

   The simulated column is one campaign: a single-class spec whose
   strategies are Ordered-NB at each fixed period, one replication.

     dune exec examples/daly_vs_fixed.exe *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Apex = Cocheck_model.Apex
module Strategy = Cocheck_core.Strategy
module Daly = Cocheck_core.Daly
module Waste = Cocheck_core.Waste
module E = Cocheck_experiments
module Table = Cocheck_util.Table
module Units = Cocheck_util.Units

let factors = [ 0.25; 0.5; 0.8; 1.0; 1.25; 2.0; 4.0 ]

let () =
  let platform = Platform.cielo ~bandwidth_gbs:160.0 ~node_mtbf_years:2.0 () in
  let c = Apex.eap in
  let ckpt_s = App_class.ckpt_time c ~platform in
  let mtbf_s = App_class.mtbf c ~platform in
  let daly = Daly.period ~ckpt_s ~mtbf_s in
  Format.printf "Application: %a@." App_class.pp c;
  Format.printf "C = %.0f s, per-job MTBF = %.2f h, Daly period = %.0f s (%.2f h)@.@."
    ckpt_s (Units.to_hours mtbf_s) daly (Units.to_hours daly);

  (* Single-class workload so the simulated waste isolates this class. *)
  let eap_only = { c with App_class.workload_pct = 100.0 } in
  let spec =
    E.Spec.make ~name:"daly-vs-fixed" ~platform ~classes:[ eap_only ]
      ~strategies:
        (List.map (fun f -> Strategy.Ordered_nb (Strategy.Fixed (daly *. f))) factors)
      ~reps:1 ~seed:5 ~days:12.0 ()
  in
  let simulated = Pool.with_pool (fun pool -> (E.Runner.run ~pool spec).E.Runner.results) in
  let analytic period_s =
    Waste.job_waste ~ckpt_s ~period_s ~recovery_s:ckpt_s ~mtbf_s
  in
  let io_pressure period_s =
    (* Fraction of the PFS this class alone consumes for checkpoints. *)
    let n = 0.66 *. 17_888.0 /. 2048.0 in
    n *. ckpt_s /. period_s
  in
  let table =
    Table.create
      ~headers:[ "period"; "vs Daly"; "analytic waste"; "simulated waste"; "I/O pressure" ]
  in
  List.iter2
    (fun factor (r : E.Runner.cell_result) ->
      let p = daly *. factor in
      Table.add_row table
        [
          Format.asprintf "%a" Units.pp_duration p;
          Printf.sprintf "%.2fx" factor;
          Printf.sprintf "%.4f" (analytic p);
          Printf.sprintf "%.4f" r.ratios.(0);
          Printf.sprintf "%.3f" (io_pressure p);
        ])
    factors simulated;
  print_string (Table.render table);
  Format.printf
    "@.The analytic curve is flat around its minimum: doubling the Daly period@.";
  Format.printf
    "halves the checkpoint I/O pressure at a small waste penalty — the fact the@.";
  Format.printf "constrained optimum of Theorem 1 exploits when bandwidth is scarce.@."
