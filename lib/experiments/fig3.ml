module Strategy = Cocheck_core.Strategy
module Lower_bound = Cocheck_core.Lower_bound
module Platform = Cocheck_model.Platform
module Apex = Cocheck_model.Apex
module Units = Cocheck_util.Units

(* The paper's axis and efficiency target. *)
let mtbf_years = [ 5.0; 10.0; 15.0; 20.0; 25.0 ]
let target_efficiency = 0.8

(* Smallest bandwidth with f(β) <= 0, for f decreasing in β, by growing a
   geometric bracket and bisecting in log space. *)
let log_bisect ~f ~lo0 ~hi0 ~iters =
  let lo = ref lo0 and hi = ref hi0 in
  while f !hi > 0.0 && !hi < 1e7 do
    lo := !hi;
    hi := !hi *. 2.0
  done;
  if f !hi > 0.0 then !hi
  else begin
    (* Make sure lo is genuinely infeasible to bracket the crossing. *)
    if f !lo <= 0.0 then !lo
    else begin
      for _ = 1 to iters do
        let mid = sqrt (!lo *. !hi) in
        if f mid <= 0.0 then hi := mid else lo := mid
      done;
      !hi
    end
  end

let probe =
  let platform = Platform.prospective () in
  Spec.make ~name:"fig3" ~platform ~classes:(Apex.scaled_workload ~target:platform)
    ~strategies:[ Strategy.Least_waste ] ~reps:5 ~seed:42 ~days:20.0 ()

let probe_platform ~bandwidth_gbs ~node_mtbf_years =
  Platform.with_node_mtbf
    (Platform.with_bandwidth probe.platform bandwidth_gbs)
    (Units.years node_mtbf_years)

let min_bandwidth_theoretical ~node_mtbf_years ~target_efficiency () =
  let target_waste = 1.0 -. target_efficiency in
  let waste_at beta =
    let platform = probe_platform ~bandwidth_gbs:beta ~node_mtbf_years in
    match Runner.bound ?classes:probe.classes platform with
    | _, r -> r.Lower_bound.waste
    | exception Invalid_argument _ -> infinity (* regular I/O saturates β *)
  in
  log_bisect ~f:(fun beta -> waste_at beta -. target_waste) ~lo0:10.0 ~hi0:100.0 ~iters:40

let min_bandwidth ~pool ~strategy ~node_mtbf_years ~target_efficiency ?(reps = probe.reps)
    ?(seed = probe.seed) ?(days = probe.days) ?(iters = 9) () =
  let target_waste = 1.0 -. target_efficiency in
  let waste_at beta =
    let platform = probe_platform ~bandwidth_gbs:beta ~node_mtbf_years in
    let spec = { probe with platform; strategies = [ strategy ]; reps; seed; days } in
    match (Runner.run ~pool spec).Runner.results with
    | [ r ] -> r.Runner.stats.Cocheck_util.Stats.mean
    | _ -> assert false
  in
  log_bisect ~f:(fun beta -> waste_at beta -. target_waste) ~lo0:50.0 ~hi0:400.0 ~iters

let run ~pool ?(reps = probe.reps) ?(seed = probe.seed) ?(days = probe.days) ?iters () =
  (* Each point is a search result, plotted as a degenerate candlestick so
     the table shows it without a fake spread. *)
  let series label min_bandwidth_gbs =
    {
      Figures.label;
      points =
        List.map
          (fun y -> Figures.analytic_point ~x:y (min_bandwidth_gbs y /. 1000.0))
          mtbf_years;
    }
  in
  let simulated strategy =
    series (Strategy.name strategy) (fun y ->
        min_bandwidth ~pool ~strategy ~node_mtbf_years:y ~target_efficiency ~reps ~seed ~days
          ?iters ())
  in
  {
    Figures.id = probe.name;
    title =
      Printf.sprintf
        "Min bandwidth for %.0f%% efficiency (prospective system, %d reps/probe, %gd segments)"
        (100.0 *. target_efficiency)
        reps days;
    x_label = "Node MTBF (years)";
    y_label = "Min. bandwidth (TB/s)";
    log_x = false;
    series =
      List.map simulated Strategy.paper_seven
      @ [
          series "Theoretical Model" (fun y ->
              min_bandwidth_theoretical ~node_mtbf_years:y ~target_efficiency ());
        ];
  }
