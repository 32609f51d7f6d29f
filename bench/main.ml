(* Hard assertions on the simulator, the campaign service and the
   tracing layer, and the simulator's exact work counters. Nothing here
   is timed: wall-clock measurement lives in perfbench/.

     dune exec bench/main.exe -- tracing serve
     dune exec bench/main.exe -- counters

   - tracing: the disabled tracer leaves a run bit-identical and records
     nothing, and the event loop stays within its minor-words-per-event
     budgets (60-day Cielo, 60-day Cielo with a three-level hierarchy,
     a year on 50k nodes).
   - serve: a fully warm pass of the campaign service runs zero
     simulations under 16 and 256 concurrent clients.
   - counters: events scheduled, fired, cancelled and rescheduled,
     result counts, the arbiter's grants and candidates scored, and the
     checkpoint hierarchy's flushes started and completed, of five fixed
     runs, and the store and pool traffic of the served
     workload's campaigns. `dune runtest` diffs them against
     bench/counters.expected; `dune promote` accepts an intended change.

   With no mode, all three run. Any failed assertion raises. *)

module Pool = Cocheck_parallel.Pool
module Strategy = Cocheck_core.Strategy
module Platform = Cocheck_model.Platform
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Ev_kind = Cocheck_sim.Ev_kind
module Engine = Cocheck_des.Engine
module E = Cocheck_experiments

let usage = "bench [tracing|serve|counters]*"
let section title = Printf.printf "\n============ %s ============\n%!" title
let cielo = Platform.cielo ~bandwidth_gbs:40.0 ()

(* The 60-day Cielo run at 40 GB/s, seed 42, that tracing and counters
   share. *)
let cielo_60day ?multilevel strategy =
  Config.make ~platform:cielo ~strategy ~seed:42 ~days:60.0 ?multilevel ()

(* Three-level hierarchy: node-local snapshots, a burst buffer with a
   dedicated flush edge, then the PFS. *)
let ml3 =
  {
    Config.levels =
      [
        Config.Snapshot
          {
            Config.sl_period_s = 600.0;
            sl_cost_s = 5.0;
            sl_recovery_s = 30.0;
            sl_survival = 0.5;
          };
        Config.Buffer
          {
            Config.bl_capacity_gb = 250_000.0;
            bl_bandwidth_gbs = 1_000.0;
            bl_flush_gbs = Some 20.0;
            bl_survival = 1.0;
          };
      ];
  }

(* A year of the Section 6.2 prospective machine (50 000 nodes), where
   the submission queue runs hundreds of entries deep. *)
let year_50k () =
  Config.make ~platform:(Platform.prospective ()) ~strategy:Strategy.Least_waste ~seed:7
    ~days:365.0 ()

(* ------------------------------------------------------------------ *)
(* tracing                                                              *)
(* ------------------------------------------------------------------ *)

(* Run [cfg] once with a GC probe armed when the engine is handed out
   (so config and job generation are excluded), and fail when its minor
   words per processed event exceed [budget]. The run is deterministic,
   so the figure is exactly reproducible on one build; blowing a budget
   means an allocation is back on the per-event path. *)
let assert_words_per_event ~name ~budget cfg =
  let engine = ref None in
  let probe = ref None in
  ignore
    (Simulator.run
       ~on_engine:(fun e ->
         engine := Some e;
         probe := Some (Cocheck_obs.Runtime.gc_probe ()))
       cfg);
  let words_per_event =
    match (!engine, !probe) with
    | Some e, Some p ->
        let delta = Cocheck_obs.Runtime.gc_sample p in
        let events = Engine.events_processed e in
        if events = 0 then 0.0
        else delta.Cocheck_obs.Runtime.minor_words /. float_of_int events
    | _ -> failwith "tracing: on_engine never ran"
  in
  Printf.printf "  %s: %.1f minor words per event (budget %.0f)\n" name words_per_event budget;
  if words_per_event > budget then
    failwith
      (Printf.sprintf "tracing: %s: %.1f minor words/event exceeds the %.0f budget" name
         words_per_event budget)

(* Zero cost when off: the fully instrumented path with the disabled
   tracer gives a bit-identical result and attaches nothing. *)
let run_tracing () =
  section "Tracing (disabled tracer) and allocation budgets";
  let module Tracing = Cocheck_obs.Tracing in
  let tracer = Tracing.disabled in
  let cfg = cielo_60day Strategy.Least_waste in
  let plain = Simulator.run cfg in
  let flush = ref (fun () -> ()) in
  let on_engine engine =
    flush := Tracing.instrument_engine tracer ~prefix:"bench" ~kinds:Ev_kind.names engine
  in
  let instrumented =
    Tracing.span tracer ~cat:"bench" "simulate" (fun () -> Simulator.run ~on_engine cfg)
  in
  !flush ();
  if plain <> instrumented then failwith "tracing: disabled tracer changed simulation results";
  if Tracing.is_enabled tracer || Tracing.length tracer <> 0 then
    failwith "tracing: disabled tracer recorded events";
  Printf.printf "  results bit-identical, 0 events recorded\n";
  (* Each budget sits about 15 % above the dev build's reading: the
     60-day run 42.7 words/event, the year 30.7, the 60-day three-level
     run 17.2. Those readings fell from 51.6, 38.5 and 18.1 when the
     instance and request floats moved into flat records and every
     calendar entry became a registered source instead of a closure
     (~64 on the year while every compute phase armed a work-done event,
     each checkpoint transfer built a completion closure and each
     Least-Waste candidate boxed its score; ~90 when every blocked start
     rebuilt the queue list). A boxed float store, a closure or an
     allocation per grant, start, compute phase or snapshot fails its
     budget. *)
  assert_words_per_event ~name:"minor-words-per-event-60day" ~budget:49.0 cfg;
  assert_words_per_event ~name:"minor-words-per-event-1year-lw-50k" ~budget:35.0
    (year_50k ());
  assert_words_per_event ~name:"minor-words-per-event-ml3-60day" ~budget:20.0
    (cielo_60day ~multilevel:ml3 Strategy.Least_waste)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

(* Client [i]'s single-cell campaign. One distinct campaign per client,
   so a cold pass exercises admission, fair queueing and concurrent store
   writes, not same-key dedup. *)
let serve_spec =
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Cocheck_util.Units.years 0.1)
  in
  let tiny_class =
    Cocheck_model.App_class.make ~name:"toy" ~workload_pct:100.0
      ~walltime_s:(Cocheck_util.Units.hours 2.0) ~nodes:16 ~input_pct:10.0
      ~output_pct:10.0 ~ckpt_pct:50.0 ()
  in
  fun i ->
    E.Spec.make ~name:(Printf.sprintf "bench-serve-%d" i) ~platform ~classes:[ tiny_class ]
      ~strategies:[ Strategy.Least_waste ] ~reps:2 ~seed:(42 + i) ~days:0.25 ()

(* N simultaneous connections each run their own single-cell campaign:
   cold first (simulated server-side, fair-queued across per-connection
   tenants), then fully warm, answered from the sharded store with zero
   simulations. *)
let run_serve pool =
  section "Campaign service (concurrent clients, cold then warm)";
  let serve n =
    let dir = temp_dir "cocheck-bench-serve" in
    let sock = Filename.temp_file "cocheck" ".sock" in
    Sys.remove sock;
    let srv = E.Service.create ~pool ~store:(E.Store.open_ dir) (E.Service.listen_unix sock) in
    let th = Thread.create E.Service.run srv in
    Fun.protect
      ~finally:(fun () ->
        E.Service.stop srv;
        Thread.join th;
        if Sys.file_exists sock then Sys.remove sock;
        rm_rf dir)
      (fun () ->
        (* An exception raised in a client thread would end only that
           thread, so each client reports the points it saw simulated
           and the main thread checks them after the join. *)
        let pass () =
          let simulated = Array.make n (-1) in
          let client i =
            let conn = E.Service.Client.connect_unix sock in
            (match
               E.Service.Client.request conn
                 (E.Protocol.Campaign { spec = serve_spec i; progress = false })
             with
            | E.Protocol.Campaign_result r -> simulated.(i) <- r.simulated + r.baselines
            | _ -> ());
            E.Service.Client.close conn
          in
          Array.iter Thread.join (Array.init n (Thread.create client));
          if Array.exists (fun s -> s < 0) simulated then
            failwith "serve: a campaign request got no campaign result";
          Array.fold_left ( + ) 0 simulated
        in
        ignore (pass ());
        let warm = pass () in
        if warm <> 0 then
          failwith (Printf.sprintf "serve: warm pass at %d clients simulated %d points" n warm);
        Printf.printf "  %d clients: warm pass ran zero simulations\n%!" n)
  in
  serve 16;
  serve 256

(* ------------------------------------------------------------------ *)
(* counters                                                             *)
(* ------------------------------------------------------------------ *)

let print_engine_counters name stats =
  List.iter
    (fun (kind, scheduled, fired, cancelled) ->
      Printf.printf "%s %s scheduled=%d fired=%d cancelled=%d\n" name kind scheduled fired
        cancelled)
    (Engine.stats_by_kind stats);
  Printf.printf "%s rescheduled=%d\n" name (Engine.stats_rescheduled stats)

let count_run name cfg =
  let stats = ref None in
  let on_engine e = stats := Some (Engine.attach_stats e ~kinds:Ev_kind.names ()) in
  let r = Simulator.run ~on_engine cfg in
  print_engine_counters name (Option.get !stats);
  Printf.printf
    "%s result events=%d jobs_started=%d jobs_completed=%d ckpts_committed=%d \
     ckpts_aborted=%d restarts=%d failures_seen=%d\n"
    name r.Simulator.events r.jobs_started r.jobs_completed r.ckpts_committed r.ckpts_aborted
    r.restarts r.failures_seen;
  Printf.printf "%s arbiter granted=%d scored=%d\n" name r.token_grants r.candidates_scored;
  Printf.printf "%s hierarchy flushes started=%d completed=%d\n" name r.flushes_started
    r.flushes_completed

(* [n] concurrent flows on the shared PFS, then [n] completions: every
   membership change retimes the next completion in place. *)
let count_io_rebalance n =
  let name = Printf.sprintf "io-rebalance-%d" n in
  let engine = Engine.create () in
  let stats = Engine.attach_stats engine ~kinds:Ev_kind.names () in
  let metrics = Cocheck_sim.Metrics.create ~seg_start:0.0 ~seg_end:1e12 in
  let io =
    Cocheck_sim.Io_subsystem.create ~engine ~metrics ~bandwidth_gbs:100.0 ~sharing:`Linear
  in
  let completed = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Cocheck_sim.Io_subsystem.start_flow io ~nodes:(1 + (i mod 7))
         ~kind:Cocheck_sim.Io_subsystem.Ckpt
         ~volume_gb:(1.0 +. float_of_int (i * 17 mod 29))
         ~on_complete:(fun () -> incr completed))
  done;
  Engine.run engine;
  print_engine_counters name stats;
  Printf.printf "%s result events=%d flows_completed=%d\n" name
    (Engine.events_processed engine) !completed

(* The served workload's store traffic. The 16 clients' campaigns run
   through the campaign engine on a sequential pool: cold into an empty
   store, warm from its index, and warm again through a fresh handle on
   the same directory, as a restarted daemon reads it. Each pass prints
   the store's hits, misses, disk loads and writes, the pool tasks
   (counted by the pool's telemetry) and the points simulated and
   loaded. *)
let count_served () =
  let tasks = ref 0 in
  let telemetry =
    {
      Pool.on_task = (fun ~worker:_ ~queued_s:_ ~ran_s:_ -> incr tasks);
      on_idle = (fun ~worker:_ ~idle_s:_ -> ());
    }
  in
  let dir = temp_dir "cocheck-bench-counters" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Pool.with_pool ~num_domains:0 ~telemetry (fun pool ->
          let pass name store =
            let before = E.Store.stats store and tasks_before = !tasks in
            let simulated = ref 0 and baselines = ref 0 and loaded = ref 0 in
            for i = 0 to 15 do
              let o = E.Runner.run ~pool ~store (serve_spec i) in
              simulated := !simulated + o.E.Runner.simulated;
              baselines := !baselines + o.baselines;
              loaded := !loaded + o.loaded
            done;
            let after = E.Store.stats store in
            Printf.printf
              "served-16-%s store hits=%d misses=%d loads=%d writes=%d pool_tasks=%d\n" name
              (after.E.Store.hits - before.E.Store.hits)
              (after.misses - before.misses) (after.loads - before.loads)
              (after.writes - before.writes) (!tasks - tasks_before);
            Printf.printf "served-16-%s runner simulated=%d baselines=%d loaded=%d\n" name
              !simulated !baselines !loaded
          in
          let store = E.Store.open_ dir in
          pass "cold" store;
          pass "warm" store;
          pass "reopened" (E.Store.open_ dir)))

let run_counters () =
  count_run "lw-cielo-60d" (cielo_60day Strategy.Least_waste);
  (* Oblivious strategies run concurrent PFS flows. *)
  count_run "oblivious-daly-cielo-60d" (cielo_60day (Strategy.Oblivious Strategy.Daly));
  count_run "lw-ml3-cielo-60d" (cielo_60day ~multilevel:ml3 Strategy.Least_waste);
  count_run "lw-prospective-1y" (year_50k ());
  count_io_rebalance 1024;
  count_served ()

let () =
  let modes = ref [] in
  let mode = function
    | "tracing" -> run_tracing
    | "serve" -> fun () -> Pool.with_pool run_serve
    | "counters" -> run_counters
    | m -> raise (Arg.Bad (Printf.sprintf "unknown mode %S; usage: %s" m usage))
  in
  Arg.parse [] (fun m -> modes := mode m :: !modes) usage;
  let modes =
    if !modes = [] then List.map mode [ "tracing"; "serve"; "counters" ] else List.rev !modes
  in
  List.iter (fun run -> run ()) modes
