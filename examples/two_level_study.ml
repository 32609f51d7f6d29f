(* Two-level (SCR-style) checkpointing: when do cheap node-local snapshots
   pay off?

   Field studies report that a large share of HPC failures are "soft"
   (process crashes, transient faults) and recoverable from node-local
   state. The two-level scheme takes a fast local snapshot every few
   minutes in addition to the global PFS checkpoints; soft failures then
   roll back minutes instead of a full checkpoint period, and never touch
   the contended file system.

   This study prints the analytic optimum of Cocheck_core.Multilevel at
   L = 2 next to a simulation of the full APEX workload under Least-Waste, sweeping
   the soft-failure fraction. *)

module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Apex = Cocheck_model.Apex
module Strategy = Cocheck_core.Strategy
module Multilevel = Cocheck_core.Multilevel
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module Table = Cocheck_util.Table

let () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  Format.printf "Scenario: %a@." Platform.pp platform;
  Format.printf
    "Local snapshots: 10 s pause every 10 min, 30 s soft recovery, no PFS traffic.@.@.";

  (* Analytic view for the dominant class. *)
  let eap = List.hd Apex.lanl_workload in
  let params soft_fraction =
    {
      Multilevel.levels =
        [
          { cost_s = 10.0; recovery_s = 30.0; fraction = soft_fraction };
          {
            cost_s = App_class.ckpt_time eap ~platform;
            recovery_s = App_class.recovery_time eap ~platform;
            fraction = 1.0 -. soft_fraction;
          };
        ];
      mtbf_s = App_class.mtbf eap ~platform;
    }
  in
  let ml soft_fraction =
    Config.local_level ~period_s:600.0 ~cost_s:10.0 ~recovery_s:30.0 ~soft_fraction
  in
  let run ?multilevel () =
    let cfg s =
      Config.make ~platform ~strategy:s ~seed:9 ~days:15.0 ?multilevel ()
    in
    let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
    let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
    let r = Simulator.run ~specs (cfg Strategy.Least_waste) in
    (r, Simulator.waste_ratio ~strategy:r ~baseline)
  in
  let _, single = run () in
  let table =
    Table.create
      ~headers:
        [
          "soft fraction"; "simulated waste"; "vs single-level"; "lost work ns";
          "analytic EAP optimum"; "worthwhile?";
        ]
  in
  List.iter
    (fun soft ->
      let r, w = run ~multilevel:(ml soft) () in
      let p = params soft in
      Table.add_row table
        [
          Printf.sprintf "%.2f" soft;
          Printf.sprintf "%.3f" w;
          Printf.sprintf "%+.3f" (w -. single);
          Printf.sprintf "%.3g" (List.assoc Metrics.Lost_work r.by_kind);
          Printf.sprintf "%.3f" (Multilevel.optimal_waste p);
          (if Multilevel.worthwhile p then "yes" else "no");
        ])
    [ 0.0; 0.25; 0.5; 0.75; 0.95 ];
  Format.printf "Least-Waste without a local level: waste %.3f@.@." single;
  print_string (Table.render table);
  Format.printf
    "@.The local level converts soft-failure rollbacks from checkpoint-period@.";
  Format.printf
    "scale to local-period scale; its value grows linearly with the soft@.";
  Format.printf "fraction, while its cost is a fixed small compute tax.@."
