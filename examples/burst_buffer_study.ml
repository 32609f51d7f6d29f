(* The paper's future-work extension, made concrete: putting a burst buffer
   in front of an under-provisioned parallel file system.

   Scenario: Cielo with only 40 GB/s of PFS bandwidth (the paper's scarce
   regime) and a 5-year node MTBF. We add an NVRAM tier of 1 TB/s and sweep
   its capacity. Checkpoints that fit commit at buffer speed and drain to
   the PFS in the background; full buffers spill to the normal strategy
   path. The run reports, per configuration: waste ratio, how many commits
   the buffer absorbed vs spilled, and the breakdown of where waste goes. *)

module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module Table = Cocheck_util.Table
module Units = Cocheck_util.Units

let () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:5.0 () in
  Format.printf "Scenario: %a@." Platform.pp platform;
  Format.printf "Burst buffer: 1 TB/s write bandwidth, capacity swept below.@.@.";
  let strategy = Strategy.Least_waste in
  let run burst_buffer =
    let multilevel = Option.map (fun bb -> Config.with_burst_buffer bb None) burst_buffer in
    let cfg s = Config.make ~platform ~strategy:s ~seed:11 ~days:15.0 ?multilevel () in
    let specs = Simulator.generate_specs (cfg Strategy.Baseline) in
    let baseline = Simulator.run ~specs (cfg Strategy.Baseline) in
    let r = Simulator.run ~specs (cfg strategy) in
    (r, Simulator.waste_ratio ~strategy:r ~baseline)
  in
  let table =
    Table.create
      ~headers:
        [ "Capacity"; "waste"; "absorbed"; "spilled"; "ckpt-io ns"; "lost-work ns" ]
  in
  List.iter
    (fun cap ->
      let bb =
        if cap <= 0.0 then None
        else Some { Config.capacity_gb = cap; bandwidth_gbs = 1000.0 }
      in
      let r, waste = run bb in
      Table.add_row table
        [
          (if cap <= 0.0 then "none" else Format.asprintf "%a" Units.pp_bytes cap);
          Printf.sprintf "%.3f" waste;
          string_of_int r.Simulator.bb_absorbed;
          string_of_int r.bb_spilled;
          Printf.sprintf "%.3g" (List.assoc Metrics.Ckpt_io r.by_kind);
          Printf.sprintf "%.3g" (List.assoc Metrics.Lost_work r.by_kind);
        ])
    [ 0.0; 60_000.0; 250_000.0; 1_000_000.0 ];
  print_string (Table.render table);
  Format.printf
    "@.Absorbed commits complete at buffer speed, shrinking both the checkpoint@.";
  Format.printf
    "I/O bill and (because commits are quick and frequent) the work lost per@.";
  Format.printf "failure. Spills show where capacity, not bandwidth, binds.@."
