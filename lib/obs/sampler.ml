module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics

let waste_kinds = List.filter (fun k -> not (Metrics.is_progress k)) Metrics.all_kinds

let fields =
  [
    "bw_util";
    "io_flows";
    "token_queue";
    "free_nodes";
    "used_nodes";
    "queued_jobs";
    "running";
    "computing";
    "in_io";
    "waiting";
    "progress_ns";
    "waste_ns";
  ]
  @ List.map (fun k -> "waste_" ^ Metrics.kind_name k) waste_kinds

let create () =
  let series = Series.create ~fields () in
  let observe (s : Simulator.snapshot) =
    let row =
      Array.of_list
        ([
           (if s.Simulator.bandwidth_gbs > 0.0 then s.io_rate_gbs /. s.bandwidth_gbs
            else 0.0);
           float_of_int s.io_flows;
           float_of_int s.token_queue;
           float_of_int s.free_nodes;
           float_of_int s.used_nodes;
           float_of_int s.queued_jobs;
           float_of_int s.running_insts;
           float_of_int s.computing;
           float_of_int s.in_io;
           float_of_int s.waiting;
           s.progress_ns;
           s.waste_ns;
         ]
        @ List.map
            (fun k ->
              match List.assoc_opt k s.waste_by_kind with Some v -> v | None -> 0.0)
            waste_kinds)
    in
    Series.push series ~time:s.Simulator.snap_time row
  in
  (series, observe)

let default_dt (cfg : Cocheck_sim.Config.t) =
  Float.max 1.0 (cfg.Cocheck_sim.Config.horizon /. 400.0)
