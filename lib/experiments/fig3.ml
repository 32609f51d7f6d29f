module Strategy = Cocheck_core.Strategy
module Waste = Cocheck_core.Waste
module Lower_bound = Cocheck_core.Lower_bound
module Platform = Cocheck_model.Platform
module Apex = Cocheck_model.Apex

let default_mtbf_years = [ 5.0; 10.0; 15.0; 20.0; 25.0 ]

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

let prospective_classes ?classes () =
  match classes with
  | Some cs -> cs
  | None -> Apex.scaled_workload ~target:(Platform.prospective ())

let min_bandwidth_theoretical ?classes ~node_mtbf_years ~target_efficiency () =
  let classes = prospective_classes ?classes () in
  let target_waste = 1.0 -. target_efficiency in
  let waste_at beta =
    let platform = Platform.prospective ~bandwidth_gbs:beta ~node_mtbf_years () in
    let counts = Waste.steady_state_counts ~classes ~platform in
    match Lower_bound.solve_model ~classes:counts ~platform () with
    | r -> r.Lower_bound.waste
    | exception Invalid_argument _ -> infinity (* regular I/O saturates β *)
  in
  log_bisect ~f:(fun beta -> waste_at beta -. target_waste) ~lo0:10.0 ~hi0:100.0 ~iters:40

let min_bandwidth ~pool ~strategy ~node_mtbf_years ~target_efficiency ~reps ~seed ~days
    ?(iters = 9) ?manifest_dir () =
  let classes = prospective_classes () in
  let target_waste = 1.0 -. target_efficiency in
  let waste_at beta =
    let platform = Platform.prospective ~bandwidth_gbs:beta ~node_mtbf_years () in
    let spec =
      Spec.make ~name:"fig3" ~platform ~classes ~strategies:[ strategy ] ~reps ~seed ~days ()
    in
    match (Runner.run ~pool ?store:(Option.map Store.open_ manifest_dir) spec).Runner.results with
    | [ r ] -> r.Runner.stats.Cocheck_util.Stats.mean
    | _ -> assert false
  in
  log_bisect ~f:(fun beta -> waste_at beta -. target_waste) ~lo0:50.0 ~hi0:400.0 ~iters

let run ~pool ?(mtbf_years = default_mtbf_years) ?(target_efficiency = 0.8) ?(reps = 5)
    ?(seed = 42) ?(days = 20.0) ?(iters = 9) ?(strategies = Strategy.paper_seven)
    ?manifest_dir () =
  let strategy_series strategy =
    {
      Figures.label = Strategy.name strategy;
      points =
        List.map
          (fun y ->
            let b =
              min_bandwidth ~pool ~strategy ~node_mtbf_years:y ~target_efficiency ~reps
                ~seed ~days ~iters ?manifest_dir ()
            in
            (* Synthesise a degenerate candlestick so the table shows the
               search result without a fake spread. *)
            Figures.analytic_point ~x:y (b /. 1000.0))
          mtbf_years;
    }
  in
  let theoretical =
    {
      Figures.label = "Theoretical Model";
      points =
        List.map
          (fun y ->
            Figures.analytic_point ~x:y
              (min_bandwidth_theoretical ~node_mtbf_years:y ~target_efficiency ()
              /. 1000.0))
          mtbf_years;
    }
  in
  {
    Figures.id = "fig3";
    title =
      Printf.sprintf
        "Min bandwidth for %.0f%% efficiency (prospective system, %d reps/probe, %gd segments)"
        (100.0 *. target_efficiency)
        reps days;
    x_label = "Node MTBF (years)";
    y_label = "Min. bandwidth (TB/s)";
    log_x = false;
    series = List.map strategy_series strategies @ [ theoretical ];
  }
