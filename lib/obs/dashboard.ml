module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics
module Strategy = Cocheck_core.Strategy
module Platform = Cocheck_model.Platform

let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let rule = String.make 64 '-'

let waste_bars ?(width = 40) by_kind =
  let wastes =
    List.filter (fun (k, v) -> (not (Metrics.is_progress k)) && v > 0.0) by_kind
  in
  let buf = Buffer.create 256 in
  (match wastes with
  | [] -> Buffer.add_string buf "  (no waste recorded)\n"
  | _ ->
      let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 wastes in
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 wastes in
      List.iter
        (fun (k, v) ->
          let n =
            if vmax > 0.0 then
              max 1 (int_of_float (Float.round (v /. vmax *. float_of_int width)))
            else 0
          in
          buf_addf buf "  %-12s %-*s %11.4g ns  %5.1f%%\n" (Metrics.kind_name k)
            width (String.make n '#') v
            (100.0 *. v /. total))
        wastes);
  Buffer.contents buf

let spark_row buf series field ~width =
  match Series.sparkline series ~field ~width with
  | exception Invalid_argument _ -> ()
  | line ->
      let col = List.map snd (Series.column series ~field) in
      let vmax = List.fold_left Float.max neg_infinity col in
      let last =
        match List.rev col with [] -> nan | v :: _ -> v
      in
      buf_addf buf "  %-12s %s  max %.4g  last %.4g\n" field line vmax last

let render ~(cfg : Config.t) ~(result : Simulator.result) ?series ?registry () =
  let buf = Buffer.create 4096 in
  let p = cfg.platform in
  buf_addf buf "== %s | %s | %d nodes | %.0f GB/s | horizon %.1f d ==\n"
    p.Platform.name
    (Strategy.name cfg.strategy)
    p.Platform.nodes p.Platform.bandwidth_gbs
    (cfg.horizon /. 86_400.0);
  buf_addf buf "seed %d  segment [%.1f d, %.1f d]  failures %b\n" cfg.seed
    (cfg.seg_start /. 86_400.0)
    (cfg.seg_end /. 86_400.0)
    cfg.with_failures;
  buf_addf buf "%s\n" rule;
  buf_addf buf "progress %.4g ns   waste %.4g ns   waste/progress %.4f\n"
    result.progress_ns result.waste_ns
    (if result.progress_ns > 0.0 then result.waste_ns /. result.progress_ns
     else nan);
  buf_addf buf "utilization %.3f   io busy fraction %.3f   events %d\n"
    result.utilization result.io_busy_fraction result.events;
  buf_addf buf
    "jobs %d/%d completed   restarts %d   ckpts %d committed / %d aborted\n"
    result.jobs_completed result.specs_total result.restarts
    result.ckpts_committed result.ckpts_aborted;
  buf_addf buf "failures %d seen / %d hitting jobs\n" result.failures_seen
    result.failures_hitting_jobs;
  buf_addf buf "%s\nWaste by kind (node-seconds)\n" rule;
  Buffer.add_string buf (waste_bars result.by_kind);
  (match series with
  | None -> ()
  | Some s when Series.length s = 0 -> ()
  | Some s ->
      buf_addf buf "%s\nPlatform series (%d samples%s)\n" rule (Series.length s)
        (let d = Series.dropped s in
         if d = 0 then "" else Printf.sprintf ", %d dropped" d);
      List.iter
        (fun field -> spark_row buf s field ~width:48)
        [ "bw_util"; "io_flows"; "token_queue"; "used_nodes"; "queued_jobs" ]);
  (match registry with
  | None -> ()
  | Some reg ->
      (match Histogram.hists reg with
      | [] -> ()
      | hs ->
          buf_addf buf "%s\nLatency quantiles\n" rule;
          let name_w =
            List.fold_left
              (fun acc h -> max acc (String.length (Histogram.name h)))
              9 hs
          in
          buf_addf buf "  %-*s %8s %10s %10s %10s %10s\n" name_w "histogram" "n"
            "p50" "p95" "p99" "max";
          List.iter
            (fun h ->
              let q p =
                match List.assoc_opt p (Histogram.quantile_summary h) with
                | Some v -> v
                | None -> nan
              in
              buf_addf buf "  %-*s %8d %10.3g %10.3g %10.3g %10.3g\n" name_w
                (Histogram.name h) (Histogram.count h) (q 0.5) (q 0.95) (q 0.99)
                (Histogram.max_value h))
            hs;
          buf_addf buf "%s\nInstrumentation\n" rule;
          List.iter
            (fun h ->
              Buffer.add_string buf (Histogram.render ~max_rows:6 h);
              Buffer.add_char buf '\n')
            hs);
      match Histogram.counters reg with
      | [] -> ()
      | cs ->
          List.iter (fun (name, v) -> buf_addf buf "  %-28s %g\n" name v) cs);
  Buffer.contents buf
