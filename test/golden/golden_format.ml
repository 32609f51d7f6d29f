(* Canonical, bit-exact textual form of a [Simulator.result], shared by the
   golden-trace generator (test/golden/gen_golden.ml) and the regression
   test (test/test_golden.ml). Floats are printed as hexadecimal literals
   ([%h]) so two results compare equal exactly when every field is
   bit-identical — the contract the arbiter decomposition must preserve. *)

module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics

let seeds = [ 11; 42; 1337 ]
let days = 2.0
let bandwidth_gbs = 40.0

let config ?burst_buffer ~strategy ~seed () =
  let multilevel = Option.map (fun bb -> Config.with_burst_buffer bb None) burst_buffer in
  Config.make ~platform:(Platform.cielo ~bandwidth_gbs ()) ~strategy ~seed ~days ?multilevel ()

(* Cielo with a 400 TB / 1 TB/s burst buffer: at this scale jobs restart
   after a newer checkpoint has already drained to the PFS, so these blocks
   pin the hierarchy's recovery rule (read the newer PFS copy, not the
   older buffered one). *)
let burst_buffer = { Config.capacity_gb = 400_000.0; bandwidth_gbs = 1_000.0 }
let bb_seeds = [ 11; 42 ]

let bb_strategies =
  [ Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s); Strategy.Least_waste ]

(* Node-local snapshot levels: one level alone, and the three-level
   hierarchy of bench/main.ml (the snapshot level above a burst buffer
   with a dedicated flush edge). These blocks pin the snapshot path: the
   ticks, the pauses, the soft restarts and their interplay with the
   checkpoint request and the work running out. *)
let one_snapshot_level =
  Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0 ~soft_fraction:0.5

let ml3 =
  {
    Config.levels =
      [
        Config.Snapshot
          { Config.sl_period_s = 600.0; sl_cost_s = 5.0; sl_recovery_s = 30.0; sl_survival = 0.5 };
        Config.Buffer
          {
            Config.bl_capacity_gb = 250_000.0;
            bl_bandwidth_gbs = 1_000.0;
            bl_flush_gbs = Some 20.0;
            bl_survival = 1.0;
          };
      ];
  }

let snapshot_variants =
  [ (" snapshot=600,5,30,0.5", one_snapshot_level); (" ml3=snapshot+flush-edge", ml3) ]

let snapshot_seeds = [ 11; 42 ]

let snapshot_strategies =
  [ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly; Strategy.Ordered Strategy.Daly ]

let f v = Printf.sprintf "%h" v

let named_floats pairs =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s:%s" k (f v)) pairs)

let named_ints pairs =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) pairs)

let result_block ?(label = "") ~strategy ~seed (r : Simulator.result) =
  String.concat "\n"
    [
      Printf.sprintf "run %s seed=%d%s" (Strategy.name strategy) seed label;
      "progress_ns=" ^ f r.progress_ns;
      "waste_ns=" ^ f r.waste_ns;
      "enrolled_ns=" ^ f r.enrolled_ns;
      "by_kind="
      ^ named_floats (List.map (fun (k, v) -> (Metrics.kind_name k, v)) r.by_kind);
      Printf.sprintf "failures_seen=%d" r.failures_seen;
      Printf.sprintf "failures_hitting_jobs=%d" r.failures_hitting_jobs;
      Printf.sprintf "ckpts_committed=%d" r.ckpts_committed;
      Printf.sprintf "ckpts_aborted=%d" r.ckpts_aborted;
      Printf.sprintf "restarts=%d" r.restarts;
      Printf.sprintf "jobs_started=%d" r.jobs_started;
      Printf.sprintf "jobs_completed=%d" r.jobs_completed;
      Printf.sprintf "events=%d" r.events;
      "mean_ckpt_interval=" ^ named_floats r.mean_ckpt_interval;
      Printf.sprintf "specs_total=%d" r.specs_total;
      Printf.sprintf "bb_absorbed=%d" r.bb_absorbed;
      Printf.sprintf "bb_spilled=%d" r.bb_spilled;
      "mean_ckpt_wait=" ^ named_floats r.mean_ckpt_wait;
      "utilization=" ^ f r.utilization;
      "io_busy_fraction=" ^ f r.io_busy_fraction;
      "restarts_by_class=" ^ named_ints r.restarts_by_class;
      "lost_work_by_class=" ^ named_floats r.lost_work_by_class;
    ]

let all_runs () =
  let blocks =
    List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            result_block ~strategy ~seed (Simulator.run (config ~strategy ~seed ())))
          seeds)
      Strategy.paper_seven
    @ List.concat_map
        (fun strategy ->
          List.map
            (fun seed ->
              result_block ~label:" burst_buffer=400000,1000" ~strategy ~seed
                (Simulator.run (config ~burst_buffer ~strategy ~seed ())))
            bb_seeds)
        bb_strategies
    @ List.concat_map
        (fun (label, multilevel) ->
          List.concat_map
            (fun strategy ->
              List.map
                (fun seed ->
                  let cfg =
                    Config.make ~platform:(Platform.cielo ~bandwidth_gbs ()) ~strategy ~seed
                      ~days ~multilevel ()
                  in
                  result_block ~label ~strategy ~seed (Simulator.run cfg))
                snapshot_seeds)
            snapshot_strategies)
        snapshot_variants
  in
  String.concat "\n\n" blocks ^ "\n"
