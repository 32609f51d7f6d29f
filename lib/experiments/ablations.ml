open Cocheck_util
module Pool = Cocheck_parallel.Pool
module Strategy = Cocheck_core.Strategy
module Period_tradeoff = Cocheck_core.Period_tradeoff
module App_class = Cocheck_model.App_class
module Apex = Cocheck_model.Apex
module Platform = Cocheck_model.Platform
module Failure_trace = Cocheck_sim.Failure_trace

type row = { label : string; values : (string * float) list }
type study = { title : string; rows : row list; table : Table.t }

let build_study ~title ~columns ~rows =
  let table = Table.create ~headers:("" :: columns) in
  List.iter
    (fun r ->
      Table.add_row table
        (r.label
        :: List.map
             (fun col ->
               match List.assoc_opt col r.values with
               | Some v -> Printf.sprintf "%.3f" v
               | None -> "-")
             columns))
    rows;
  { title; rows; table }

let value study ~row ~col =
  List.find_opt (fun r -> r.label = row) study.rows
  |> Fun.flip Option.bind (fun r -> List.assoc_opt col r.values)

let default_strategies =
  [
    Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s);
    Strategy.Oblivious Strategy.Daly;
    Strategy.Ordered_nb Strategy.Daly;
    Strategy.Least_waste;
  ]

let strategy_columns strategies = List.map Strategy.name strategies

(* One unswept campaign: mean waste per strategy as (column, value) pairs
   in strategy order — the declarative core every Monte Carlo study maps
   its rows through. *)
let mc ~pool ~platform ~strategies ~reps ~seed ~days ?failure_dist
    ?interference_alpha ?multilevel () =
  let spec =
    Spec.make ~name:"ablation" ~platform ~strategies ~reps ~seed ~days ?failure_dist
      ?interference_alpha ?multilevel ()
  in
  List.map
    (fun (r : Runner.cell_result) ->
      (Strategy.name r.Runner.strategy, r.Runner.stats.Stats.mean))
    (Runner.run ~pool spec).Runner.results

let failure_distribution ~pool ?(reps = 10) ?(seed = 42) ?(days = 20.0) () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  let strategies = default_strategies in
  let rows =
    List.map
      (fun law ->
        {
          label = Failure_trace.distribution_name law;
          values = mc ~pool ~platform ~strategies ~reps ~seed ~days ~failure_dist:law ();
        })
      [
        Failure_trace.Exponential;
        Failure_trace.Weibull { shape = 0.7 };
        Failure_trace.Weibull { shape = 1.5 };
      ]
  in
  build_study
    ~title:
      "Ablation: failure inter-arrival law (Cielo, 40 GB/s, 2y node MTBF; mean waste ratio)"
    ~columns:(strategy_columns strategies) ~rows

let interference_model ~pool ?(reps = 10) ?(seed = 42) ?(days = 20.0) () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:10.0 () in
  let strategies = default_strategies in
  let rows =
    List.map
      (fun alpha ->
        {
          label = Printf.sprintf "alpha=%g" alpha;
          values =
            mc ~pool ~platform ~strategies ~reps ~seed ~days ~interference_alpha:alpha ();
        })
      [ 0.0; 0.25; 0.5; 1.0 ]
  in
  build_study
    ~title:
      "Ablation: adversarial interference (footnote 2); aggregate degrades as 1/(1+alpha(k-1))"
    ~columns:(strategy_columns strategies) ~rows

let burst_buffer ~pool ?(reps = 8) ?(seed = 42) ?(days = 20.0) () =
  let bb_bandwidth_gbs = 1_000.0 in
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:5.0 () in
  let strategies =
    [ Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s); Strategy.Least_waste ]
  in
  let rows =
    List.map
      (fun cap ->
        let multilevel =
          if cap <= 0.0 then None
          else
            Some
              (Cocheck_sim.Config.with_burst_buffer
                 { Cocheck_sim.Config.capacity_gb = cap; bandwidth_gbs = bb_bandwidth_gbs }
                 None)
        in
        {
          label =
            (if cap <= 0.0 then "no buffer"
             else Format.asprintf "%a buffer" Units.pp_bytes cap);
          values = mc ~pool ~platform ~strategies ~reps ~seed ~days ?multilevel ();
        })
      [ 0.0; 100_000.0; 400_000.0; 1_600_000.0 ]
  in
  build_study
    ~title:
      (Printf.sprintf
         "Ablation: burst-buffer capacity at %.0f GB/s buffer bandwidth (Cielo, 40 GB/s PFS)"
         bb_bandwidth_gbs)
    ~columns:(strategy_columns strategies) ~rows

let period_scaling () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  let columns =
    List.concat_map
      (fun (c : App_class.t) -> [ c.App_class.name ^ " waste"; c.App_class.name ^ " F" ])
      Apex.lanl_workload
  in
  let rows =
    List.map
      (fun gamma ->
        let values =
          List.concat_map
            (fun (c : App_class.t) ->
              let p =
                Period_tradeoff.evaluate
                  ~ckpt_s:(App_class.ckpt_time c ~platform)
                  ~mtbf_s:(App_class.mtbf c ~platform)
                  ~recovery_s:(App_class.recovery_time c ~platform)
                  ~gamma
              in
              [
                (c.App_class.name ^ " waste", p.Period_tradeoff.waste);
                (c.App_class.name ^ " F", p.io_pressure);
              ])
            Apex.lanl_workload
        in
        { label = Printf.sprintf "gamma=%g" gamma; values })
      [ 0.5; 0.8; 1.0; 1.5; 2.0; 3.0 ]
  in
  build_study
    ~title:
      "Ablation: period scaling gamma x P_Daly (analytic Eq. 3 waste and per-job I/O fraction)"
    ~columns ~rows

let optimal_periods ~pool ?(reps = 10) ?(seed = 42) ?(days = 20.0) () =
  let strategies =
    [
      Strategy.Ordered_nb Strategy.Daly;
      Strategy.Ordered_nb Strategy.Optimal;
      Strategy.Least_waste;
    ]
  in
  let rows =
    List.map
      (fun b ->
        let platform = Platform.cielo ~bandwidth_gbs:b ~node_mtbf_years:2.0 () in
        let counts =
          Cocheck_core.Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform
        in
        let bound =
          (Cocheck_core.Lower_bound.solve_model ~classes:counts ~platform ())
            .Cocheck_core.Lower_bound.waste
        in
        {
          label = Printf.sprintf "%g GB/s" b;
          values =
            mc ~pool ~platform ~strategies ~reps ~seed ~days ()
            @ [ ("Theoretical Model", bound) ];
        })
      [ 30.0; 40.0; 60.0; 100.0 ]
  in
  build_study
    ~title:
      "Ablation: Daly vs Theorem-1 (Optimal) checkpoint periods under the non-blocking \
       scheduler (Cielo, 2y node MTBF)"
    ~columns:(strategy_columns strategies @ [ "Theoretical Model" ])
    ~rows

let two_level ~pool ?(reps = 8) ?(seed = 42) ?(days = 20.0) () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  let strategy = Strategy.Least_waste in
  (* Local snapshots priced like an SCR XOR level: ~3% of a global commit. *)
  let ml soft_fraction =
    Cocheck_sim.Config.local_level ~period_s:600.0 ~cost_s:10.0 ~recovery_s:30.0
      ~soft_fraction
  in
  let eap = List.hd Apex.lanl_workload in
  (* The L = 2 model: local snapshots serve the soft failures, global
     checkpoints the rest. *)
  let analytic soft_fraction =
    Cocheck_core.Multilevel.optimal_waste
      {
        Cocheck_core.Multilevel.levels =
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
  let mean_waste ?multilevel () =
    match mc ~pool ~platform ~strategies:[ strategy ] ~reps ~seed ~days ?multilevel () with
    | [ (_, w) ] -> w
    | _ -> assert false
  in
  let single_level = mean_waste () in
  let rows =
    List.map
      (fun soft ->
        let w = mean_waste ~multilevel:(ml soft) () in
        {
          label = Printf.sprintf "soft=%g" soft;
          values =
            [
              ("single-level", single_level);
              ("two-level", w);
              ("analytic EAP two-level", analytic soft);
            ];
        })
      [ 0.0; 0.3; 0.6; 0.9 ]
  in
  build_study
    ~title:
      "Ablation: two-level checkpointing under Least-Waste (Cielo, 40 GB/s, 2y node MTBF)"
    ~columns:[ "single-level"; "two-level"; "analytic EAP two-level" ]
    ~rows

let flush_bandwidth ~pool ?(reps = 8) ?(seed = 42) ?(days = 20.0) () =
  let capacity_gb = 400_000.0 and buffer_gbs = 1_000.0 in
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  let strategies =
    [
      Strategy.Oblivious Strategy.Daly;
      Strategy.Ordered_nb Strategy.Daly;
      Strategy.Least_waste;
    ]
  in
  (* One buffer level in front of the PFS whose background flush edge is
     the swept parameter; survival 1.0 keeps failures from erasing it so
     the sweep isolates the drain-bandwidth effect. *)
  let ml f =
    {
      Cocheck_sim.Config.levels =
        [
          Cocheck_sim.Config.Buffer
            {
              Cocheck_sim.Config.bl_capacity_gb = capacity_gb;
              bl_bandwidth_gbs = buffer_gbs;
              bl_flush_gbs = Some f;
              bl_survival = 1.0;
            };
        ];
    }
  in
  let counts =
    Cocheck_core.Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform
  in
  let rows =
    List.map
      (fun f ->
        let bound =
          (Cocheck_core.Lower_bound.solve_model_hierarchical ~classes:counts ~platform
             ~absorb_bandwidth_gbs:buffer_gbs ~edge_bandwidths_gbs:[ f ] ())
            .Cocheck_core.Lower_bound.waste
        in
        {
          label = Printf.sprintf "%g GB/s" f;
          values =
            mc ~pool ~platform ~strategies ~reps ~seed ~days ~multilevel:(ml f) ()
            @ [ ("Hierarchical Bound", bound) ];
        })
      [ 2.0; 5.0; 10.0; 20.0; 40.0 ]
  in
  build_study
    ~title:
      (Printf.sprintf
         "Ablation: background-flush bandwidth of a %.0f GB/s buffer tier (Cielo, 40 \
          GB/s PFS, 2y node MTBF; hierarchical lower bound in the right column)"
         buffer_gbs)
    ~columns:(strategy_columns strategies @ [ "Hierarchical Bound" ])
    ~rows

let fixed_period ~pool ?(reps = 8) ?(seed = 42) ?(days = 20.0) () =
  let platform = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:5.0 () in
  let obl_daly_ref, onb_daly_ref =
    match
      mc ~pool ~platform
        ~strategies:[ Strategy.Oblivious Strategy.Daly; Strategy.Ordered_nb Strategy.Daly ]
        ~reps ~seed ~days ()
    with
    | [ (_, obl); (_, onb) ] -> (obl, onb)
    | _ -> assert false
  in
  let rows =
    List.map
      (fun p ->
        let obl_fixed, onb_fixed =
          match
            mc ~pool ~platform
              ~strategies:
                [ Strategy.Oblivious (Strategy.Fixed p);
                  Strategy.Ordered_nb (Strategy.Fixed p) ]
              ~reps ~seed ~days ()
          with
          | [ (_, obl); (_, onb) ] -> (obl, onb)
          | _ -> assert false
        in
        {
          label = Format.asprintf "%a" Units.pp_duration p;
          values =
            [
              ("Oblivious-Fixed", obl_fixed);
              ("Ordered-NB-Fixed", onb_fixed);
              ("Oblivious-Daly (ref)", obl_daly_ref);
              ("Ordered-NB-Daly (ref)", onb_daly_ref);
            ];
        })
      [ 1800.0; 3600.0; 7200.0; 14400.0 ]
  in
  build_study
    ~title:
      "Ablation: fixed-period sensitivity (Cielo, 40 GB/s, 5y node MTBF; Daly references \
       in the right columns)"
    ~columns:
      [ "Oblivious-Fixed"; "Ordered-NB-Fixed"; "Oblivious-Daly (ref)";
        "Ordered-NB-Daly (ref)" ]
    ~rows

let studies =
  [
    ( "failures",
      fun ~pool ~reps ~seed ~days -> failure_distribution ~pool ~reps ~seed ~days () );
    ( "interference",
      fun ~pool ~reps ~seed ~days -> interference_model ~pool ~reps ~seed ~days () );
    ("burst-buffer", fun ~pool ~reps ~seed ~days -> burst_buffer ~pool ~reps ~seed ~days ());
    ("period", fun ~pool:_ ~reps:_ ~seed:_ ~days:_ -> period_scaling ());
    ( "optimal-periods",
      fun ~pool ~reps ~seed ~days -> optimal_periods ~pool ~reps ~seed ~days () );
    ("two-level", fun ~pool ~reps ~seed ~days -> two_level ~pool ~reps ~seed ~days ());
    ("flush", fun ~pool ~reps ~seed ~days -> flush_bandwidth ~pool ~reps ~seed ~days ());
    ("fixed-period", fun ~pool ~reps ~seed ~days -> fixed_period ~pool ~reps ~seed ~days ());
  ]
