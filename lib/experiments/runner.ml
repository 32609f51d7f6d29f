open Cocheck_util
module Pool = Cocheck_parallel.Pool
module Strategy = Cocheck_core.Strategy
module Waste = Cocheck_core.Waste
module Lower_bound = Cocheck_core.Lower_bound
module Platform = Cocheck_model.Platform
module Apex = Cocheck_model.Apex
module Simulator = Cocheck_sim.Simulator
module Json = Cocheck_obs.Json
module Manifest = Cocheck_obs.Manifest
module Tracing = Cocheck_obs.Tracing
module Span = Cocheck_obs.Span

type cell_result = {
  x : float option;
  platform : Platform.t;
  strategy : Strategy.t;
  ratios : float array;
  stats : Stats.candlestick;
}

type outcome = {
  spec : Spec.t;
  results : cell_result list;
  simulated : int;
  baselines : int;
  loaded : int;
}

type progress = { total : int; cached : int; missing : int }

(* ------------------------------------------------------------------ *)
(* Live progress events                                                 *)
(* ------------------------------------------------------------------ *)

type progress_event =
  | Point of {
      seq : int;
      elapsed_s : float;
      cell : int;
      x : float option;
      rep : int;
      strategy : string;
      source : [ `Cached | `Simulated ];
      done_points : int;
      total_points : int;
    }
  | Finished of {
      elapsed_s : float;
      simulated : int;
      baselines : int;
      loaded : int;
      total_points : int;
    }

let progress_to_json = function
  | Point p ->
      Json.Obj
        [
          ("event", Json.String "point");
          ("seq", Json.Int p.seq);
          ("elapsed_s", Json.Float p.elapsed_s);
          ("cell", Json.Int p.cell);
          ("x", (match p.x with None -> Json.Null | Some x -> Json.Float x));
          ("rep", Json.Int p.rep);
          ("strategy", Json.String p.strategy);
          ( "source",
            Json.String (match p.source with `Cached -> "cached" | `Simulated -> "simulated")
          );
          ("done", Json.Int p.done_points);
          ("total", Json.Int p.total_points);
        ]
  | Finished f ->
      Json.Obj
        [
          ("event", Json.String "end");
          ("elapsed_s", Json.Float f.elapsed_s);
          ("simulated", Json.Int f.simulated);
          ("baselines", Json.Int f.baselines);
          ("loaded", Json.Int f.loaded);
          ("total", Json.Int f.total_points);
        ]

let progress_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let flt k = Option.bind (Json.member k j) Json.to_float_opt in
  match str "event" with
  | Some "point" -> (
      match (int "seq", flt "elapsed_s", int "cell", int "rep", str "strategy",
             str "source", int "done", int "total")
      with
      | ( Some seq, Some elapsed_s, Some cell, Some rep, Some strategy,
          Some source, Some done_points, Some total_points ) -> (
          match source with
          | "cached" | "simulated" ->
              Some
                (Point
                   {
                     seq;
                     elapsed_s;
                     cell;
                     x = Option.bind (Json.member "x" j) Json.to_float_opt;
                     rep;
                     strategy;
                     source = (if source = "cached" then `Cached else `Simulated);
                     done_points;
                     total_points;
                   })
          | _ -> None)
      | _ -> None)
  | Some "end" -> (
      match (flt "elapsed_s", int "simulated", int "baselines", int "loaded", int "total") with
      | Some elapsed_s, Some simulated, Some baselines, Some loaded, Some total_points ->
          Some (Finished { elapsed_s; simulated; baselines; loaded; total_points })
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Record construction                                                  *)
(* ------------------------------------------------------------------ *)

(* A record is self-describing (campaign name, point coordinates, exact
   seed) but only the ratio is read back; the key in the filename is the
   lookup. Every field is a pure function of (spec, cell, strategy, rep),
   so records are deterministic: racing writers of one key produce
   byte-identical files (the property {!Store.add} relies on). *)
let write_record ~store ~spec ~cell ~strategy ~rep ~key ratio =
  let json =
    Json.Obj
      [
        ("schema", Json.String "cocheck.cell-result");
        ("version", Json.Int 1);
        ("key", Json.String key);
        ("campaign", Json.String spec.Spec.name);
        ("spec_digest", Json.String (Spec.digest spec));
        ( "x",
          match cell.Spec.x with None -> Json.Null | Some x -> Json.Float x );
        ("strategy", Json.String (Strategy.name strategy));
        ("rep", Json.Int rep);
        ("seed", Json.Int (Spec.rep_seed ~seed:spec.Spec.seed ~rep));
        ("waste_ratio", Json.Float ratio);
      ]
  in
  Store.add store ~key ~ratio json

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let run ~pool ?store ?tenant ?(tracer = Tracing.disabled) ?on_progress spec =
  Spec.validate spec;
  let cells = Array.of_list (Spec.cells spec) in
  let strategies = Array.of_list spec.Spec.strategies in
  let n_s = Array.length strategies in
  let reps = spec.Spec.reps in
  let total_points = Spec.points spec in
  let simulated = Atomic.make 0 in
  let baselines = Atomic.make 0 in
  let loaded = Atomic.make 0 in
  (* Progress emission is serialized under one mutex so JSONL consumers
     see monotone [seq] / [done] counters even with many workers. *)
  let started = Unix.gettimeofday () in
  let progress_mutex = Mutex.create () in
  let seq = ref 0 in
  let done_points = ref 0 in
  let emit_point ~ci ~x ~rep ~strategy ~source =
    match on_progress with
    | None -> ()
    | Some f ->
        Mutex.lock progress_mutex;
        incr seq;
        incr done_points;
        let ev =
          Point
            {
              seq = !seq;
              elapsed_s = Unix.gettimeofday () -. started;
              cell = ci;
              x;
              rep;
              strategy = Strategy.name strategy;
              source;
              done_points = !done_points;
              total_points;
            }
        in
        Fun.protect ~finally:(fun () -> Mutex.unlock progress_mutex) (fun () -> f ev)
  in
  (* One task per (cell, replication): the baseline run and the job specs
     are shared by every strategy of the replication, exactly as in the
     paper's protocol. *)
  let task idx =
    let ci = idx / reps in
    let cell = cells.(ci) and rep = idx mod reps in
    (* Keys exist only to address the store: without one, no digest. *)
    let keys, cached =
      match store with
      | None -> ([||], Array.make n_s None)
      | Some store ->
          let keys =
            Array.map (fun strategy -> Spec.cell_key spec ~cell ~strategy ~rep) strategies
          in
          (keys, Array.map (Store.find store) keys)
    in
    let hits = Array.fold_left (fun n c -> if c = None then n else n + 1) 0 cached in
    if hits > 0 then ignore (Atomic.fetch_and_add loaded hits);
    let track = Pool.current_worker () in
    let cell_span body =
      if not (Tracing.is_enabled tracer) then body ()
      else
        let span_args =
          [
            ("cell", Span.Num (float_of_int ci));
            ("rep", Span.Num (float_of_int rep));
            ("source", Span.Str (if hits = n_s then "cached" else "simulated"));
          ]
        in
        Tracing.span tracer ~cat:"campaign" ~track ~args:span_args
          (Printf.sprintf "cell %d rep %d" ci rep)
          body
    in
    cell_span (fun () ->
        if hits = n_s then begin
          Array.iter
            (fun strategy -> emit_point ~ci ~x:cell.Spec.x ~rep ~strategy ~source:`Cached)
            strategies;
          Array.map Option.get cached
        end
        else begin
          let cfg strategy = Spec.config spec ~cell ~strategy ~rep in
          let baseline_cfg = cfg Strategy.Baseline in
          let job_specs =
            Tracing.span tracer ~cat:"campaign" ~track "generate" (fun () ->
                Simulator.generate_specs baseline_cfg)
          in
          let baseline =
            Tracing.span tracer ~cat:"campaign" ~track "baseline" (fun () ->
                Simulator.run ~specs:job_specs baseline_cfg)
          in
          Atomic.incr baselines;
          Array.mapi
            (fun i strategy ->
              match cached.(i) with
              | Some ratio ->
                  emit_point ~ci ~x:cell.Spec.x ~rep ~strategy ~source:`Cached;
                  ratio
              | None ->
                  let r =
                    Tracing.span tracer ~cat:"campaign" ~track
                      ("sim:" ^ Strategy.name strategy)
                      (fun () -> Simulator.run ~specs:job_specs (cfg strategy))
                  in
                  let ratio = Simulator.waste_ratio ~strategy:r ~baseline in
                  Atomic.incr simulated;
                  Option.iter
                    (fun store ->
                      write_record ~store ~spec ~cell ~strategy ~rep ~key:keys.(i) ratio)
                    store;
                  emit_point ~ci ~x:cell.Spec.x ~rep ~strategy ~source:`Simulated;
                  ratio)
            strategies
        end)
  in
  let rows = Pool.init_array ?tenant pool (Array.length cells * reps) task in
  (match on_progress with
  | None -> ()
  | Some f ->
      f
        (Finished
           {
             elapsed_s = Unix.gettimeofday () -. started;
             simulated = Atomic.get simulated;
             baselines = Atomic.get baselines;
             loaded = Atomic.get loaded;
             total_points;
           }));
  let results =
    List.concat_map
      (fun ci ->
        List.map
          (fun si ->
            let cell = cells.(ci) in
            let ratios = Array.init reps (fun rep -> rows.((ci * reps) + rep).(si)) in
            {
              x = cell.Spec.x;
              platform = cell.Spec.platform;
              strategy = strategies.(si);
              ratios;
              stats = Stats.candlestick ratios;
            })
          (List.init n_s Fun.id))
      (List.init (Array.length cells) Fun.id)
  in
  {
    spec;
    results;
    simulated = Atomic.get simulated;
    baselines = Atomic.get baselines;
    loaded = Atomic.get loaded;
  }

let status ?store spec =
  Spec.validate spec;
  let cells = Spec.cells spec in
  let total = Spec.points spec in
  let cached =
    match store with
    | None -> 0
    | Some store ->
        List.fold_left
          (fun acc cell ->
            List.fold_left
              (fun acc strategy ->
                let hits = ref 0 in
                for rep = 0 to spec.Spec.reps - 1 do
                  let key = Spec.cell_key spec ~cell ~strategy ~rep in
                  if Store.contains store key then incr hits
                done;
                acc + !hits)
              acc spec.Spec.strategies)
          0 cells
  in
  { total; cached; missing = total - cached }

(* ------------------------------------------------------------------ *)
(* Figure assembly                                                      *)
(* ------------------------------------------------------------------ *)

let strategy_series o =
  let results = Array.of_list o.results in
  let n_s = List.length o.spec.Spec.strategies in
  let n_c = Array.length results / n_s in
  List.mapi
    (fun si strategy ->
      {
        Figures.label = Strategy.name strategy;
        points =
          List.init n_c (fun ci ->
              let r = results.((ci * n_s) + si) in
              Figures.sim_point ~x:(Option.value r.x ~default:0.0) r.stats);
      })
    o.spec.Spec.strategies

let bound ?classes platform =
  let classes =
    match classes with Some cs -> cs | None -> Apex.default_workload platform
  in
  let counts = Waste.steady_state_counts ~classes ~platform in
  (counts, Lower_bound.solve_model ~classes:counts ~platform ())

let outside_model counts (r : Lower_bound.result) =
  match r.Lower_bound.domain with
  | Lower_bound.In_model -> None
  | Waste_reaches_one -> Some "the summed waste reaches 1"
  | Period_reaches_mtbf { class_index; period_s; mtbf_s } ->
      let name =
        match List.nth_opt counts class_index with
        | Some (_, c) -> c.Cocheck_model.App_class.name
        | None -> Printf.sprintf "class %d" class_index
      in
      Some
        (Printf.sprintf "the %s period %.0f s reaches its job MTBF %.0f s" name period_s
           mtbf_s)

let theory_series spec =
  {
    Figures.label = "Theoretical Model";
    points =
      List.map
        (fun (cell : Spec.cell) ->
          Figures.analytic_point
            ~x:(Option.value cell.Spec.x ~default:0.0)
            (snd (bound ?classes:spec.Spec.classes cell.Spec.platform)).Lower_bound.waste)
        (Spec.cells spec);
  }

(* The caption names what the axis sweeps and the platform parameters it
   leaves fixed. *)
let title (spec : Spec.t) =
  let p = spec.Spec.platform in
  let bandwidth = Printf.sprintf "%g GB/s" p.Platform.bandwidth_gbs
  and mtbf = Printf.sprintf "node MTBF %gy" (Units.to_years p.Platform.node_mtbf_s) in
  let swept, fixed =
    match spec.Spec.axis with
    | Spec.Bandwidth_gbs _ -> (" vs system bandwidth", mtbf)
    | Spec.Mtbf_years _ -> (" vs node MTBF", bandwidth)
    | Spec.Flush_gbs _ -> (" vs flush bandwidth", bandwidth ^ ", " ^ mtbf)
    | Spec.No_sweep -> ("", bandwidth ^ ", " ^ mtbf)
  in
  Printf.sprintf "Waste ratio%s (%s, %s, %d reps, %gd segment)" swept p.Platform.name fixed
    spec.Spec.reps spec.Spec.days

let to_figure o =
  {
    Figures.id = o.spec.Spec.name;
    title = title o.spec;
    x_label = Spec.axis_label o.spec;
    y_label = "Waste Ratio";
    log_x = Spec.log_x o.spec;
    series = strategy_series o @ [ theory_series o.spec ];
  }
