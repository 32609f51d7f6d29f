(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel microbenchmarks of the hot paths.

     dune exec bench/main.exe                 # everything, modest replication
     dune exec bench/main.exe -- fig1 --reps 100 --days 60
     dune exec bench/main.exe -- micro

   The defaults trade Monte Carlo depth for wall time; raise --reps/--days
   to approach the paper's 1000-replication protocol. *)

module Pool = Cocheck_parallel.Pool
module Strategy = Cocheck_core.Strategy
module Platform = Cocheck_model.Platform
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module E = Cocheck_experiments

let reps = ref 10
let days = ref 30.0
let fig3_reps = ref 3
let fig3_days = ref 20.0
let fig3_iters = ref 8
let seed = ref 42
let modes = ref []
let bench_out = ref ""
let quota_s = ref 1.0

let usage = "bench [table1|fig1|fig2|fig3|ablations|micro|serve|tracing|all]* [options]"

let spec =
  [
    ("--reps", Arg.Set_int reps, "Monte Carlo replications for fig1/fig2 (default 10)");
    ("--days", Arg.Set_float days, "segment length in days for fig1/fig2 (default 30)");
    ("--fig3-reps", Arg.Set_int fig3_reps, "replications per fig3 probe (default 3)");
    ("--fig3-days", Arg.Set_float fig3_days, "segment days per fig3 probe (default 20)");
    ("--fig3-iters", Arg.Set_int fig3_iters, "fig3 bisection iterations (default 8)");
    ("--seed", Arg.Set_int seed, "root seed (default 42)");
    ( "--quota",
      Arg.Set_float quota_s,
      "Bechamel time quota per microbenchmark, seconds (default 1.0)" );
    ( "--bench-out",
      Arg.Set_string bench_out,
      "machine-readable results file (default BENCH_<timestamp>.json)" );
  ]

let section title = Printf.printf "\n============ %s ============\n%!" title

(* One timer accumulates every phase; the table at the end of the run
   breaks the campaign's wall time down. *)
let timer = Cocheck_obs.Timer.create ()

let timed name f =
  let before = Cocheck_obs.Timer.total_s timer in
  let r = Cocheck_obs.Timer.time timer ~name f in
  Printf.printf "[%s took %.1fs]\n%!" name (Cocheck_obs.Timer.total_s timer -. before);
  r

(* Every measurement lands here and, at exit, in the BENCH_*.json trajectory
   file, so perf regressions can be diffed run over run by machines. *)
let micro_estimates : (string * float option * float option) list ref = ref []
let e2e_wall : (string * float) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Paper artifacts                                                      *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "Table 1 — LANL APEX workload";
  print_string (E.Table1.render ())

let run_fig1 pool =
  section "Figure 1 — waste ratio vs system bandwidth (Cielo, node MTBF 2y)";
  let fig =
    timed "fig1" (fun () -> E.Fig1.run ~pool ~reps:!reps ~seed:!seed ~days:!days ())
  in
  print_string (E.Figures.render fig)

let run_fig2 pool =
  section "Figure 2 — waste ratio vs node MTBF (Cielo, 40 GB/s)";
  let fig =
    timed "fig2" (fun () -> E.Fig2.run ~pool ~reps:!reps ~seed:!seed ~days:!days ())
  in
  print_string (E.Figures.render fig)

let run_fig3 pool =
  section "Figure 3 — min bandwidth for 80% efficiency (prospective system)";
  let fig =
    timed "fig3" (fun () ->
        E.Fig3.run ~pool ~reps:!fig3_reps ~seed:!seed ~days:!fig3_days
          ~iters:!fig3_iters ())
  in
  print_string (E.Figures.render fig)

let run_ablations pool =
  section "Ablation: failure inter-arrival law";
  let a =
    timed "ablation-failures" (fun () ->
        E.Ablations.failure_distribution ~pool ~reps:(max 2 (!reps / 2)) ~seed:!seed
          ~days:(Float.min !days 20.0) ())
  in
  print_string (Cocheck_util.Table.render a.E.Ablations.table);
  section "Ablation: adversarial interference model";
  let a =
    timed "ablation-interference" (fun () ->
        E.Ablations.interference_model ~pool ~reps:(max 2 (!reps / 2)) ~seed:!seed
          ~days:(Float.min !days 20.0) ())
  in
  print_string (Cocheck_util.Table.render a.E.Ablations.table);
  section "Ablation: burst-buffer capacity (Section 8 extension)";
  let a =
    timed "ablation-bb" (fun () ->
        E.Ablations.burst_buffer ~pool ~reps:(max 2 (!reps / 2)) ~seed:!seed
          ~days:(Float.min !days 20.0) ())
  in
  print_string (Cocheck_util.Table.render a.E.Ablations.table);
  section "Ablation: period scaling (Arunagiri et al., ref. [12])";
  let a = timed "ablation-period" (fun () -> E.Ablations.period_scaling ()) in
  print_string (Cocheck_util.Table.render a.E.Ablations.table);
  section "Ablation: Daly vs Theorem-1 optimal periods";
  let a =
    timed "ablation-optimal" (fun () ->
        E.Ablations.optimal_periods ~pool ~reps:(max 2 (!reps / 2)) ~seed:!seed
          ~days:(Float.min !days 20.0) ())
  in
  print_string (Cocheck_util.Table.render a.E.Ablations.table);
  section "Ablation: two-level (SCR-style) checkpointing";
  let a =
    timed "ablation-two-level" (fun () ->
        E.Ablations.two_level ~pool ~reps:(max 2 (!reps / 2)) ~seed:!seed
          ~days:(Float.min !days 20.0) ())
  in
  print_string (Cocheck_util.Table.render a.E.Ablations.table);
  section "Ablation: fixed-period sensitivity";
  let a =
    timed "ablation-fixed-period" (fun () ->
        E.Ablations.fixed_period ~pool ~reps:(max 2 (!reps / 2)) ~seed:!seed
          ~days:(Float.min !days 20.0) ())
  in
  print_string (Cocheck_util.Table.render a.E.Ablations.table)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                      *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let pqueue_churn =
    Test.make ~name:"pqueue-add-pop-256"
      (Staged.stage (fun () ->
           let q = Cocheck_util.Pqueue.create () in
           for i = 0 to 255 do
             ignore (Cocheck_util.Pqueue.add q ~priority:(float_of_int (i * 37 mod 97)) i)
           done;
           while Cocheck_util.Pqueue.pop q <> None do
             ()
           done))
  in
  (* Same churn through the allocation-free root API the engine loop uses
     (min_value + drop_min instead of the option/tuple-boxing pop). *)
  let pqueue_drop_churn =
    Test.make ~name:"pqueue-add-drop-256"
      (Staged.stage (fun () ->
           let q = Cocheck_util.Pqueue.create () in
           for i = 0 to 255 do
             ignore (Cocheck_util.Pqueue.add q ~priority:(float_of_int (i * 37 mod 97)) i)
           done;
           while not (Cocheck_util.Pqueue.is_empty q) do
             ignore (Cocheck_util.Pqueue.min_value q);
             Cocheck_util.Pqueue.drop_min q
           done))
  in
  let candidates =
    List.init 32 (fun i ->
        if i mod 2 = 0 then
          Cocheck_core.Candidate.Io
            { key = i; nodes = 512 + i; service_s = 100.0 +. float_of_int i; waited_s = 50.0 }
        else
          Cocheck_core.Candidate.Ckpt
            {
              key = i;
              nodes = 2048;
              ckpt_s = 300.0;
              exposed_s = 1000.0 +. float_of_int i;
              recovery_s = 300.0;
            })
  in
  let least_waste_select =
    Test.make ~name:"least-waste-select-32"
      (Staged.stage (fun () ->
           ignore
             (Cocheck_core.Least_waste.select ~node_mtbf_s:(2.0 *. 365.0 *. 86400.0)
                candidates)))
  in
  let platform = Platform.cielo ~bandwidth_gbs:40.0 () in
  let counts =
    Cocheck_core.Waste.steady_state_counts ~classes:Cocheck_model.Apex.lanl_workload
      ~platform
  in
  let lower_bound =
    Test.make ~name:"lower-bound-solve"
      (Staged.stage (fun () ->
           ignore (Cocheck_core.Lower_bound.solve_model ~classes:counts ~platform ())))
  in
  let daly_day =
    (* One simulated day of the full Cielo workload under Least-Waste:
       the end-to-end hot path. *)
    Test.make ~name:"simulate-1day-least-waste"
      (Staged.stage (fun () ->
           let cfg =
             Config.make ~platform ~strategy:Strategy.Least_waste ~seed:7 ~days:1.0 ()
           in
           ignore (Simulator.run cfg)))
  in
  let jobgen =
    Test.make ~name:"jobgen-62days"
      (Staged.stage (fun () ->
           let cfg =
             Config.make ~platform ~strategy:Strategy.Baseline ~seed:11 ~days:60.0 ()
           in
           ignore (Simulator.generate_specs cfg)))
  in
  (* n concurrent flows, then n completions: n+1 membership changes on the
     shared PFS. The incremental scheduler should grow ~n log n here; the
     retired full-rescan implementation grew ~n^3. *)
  let io_rebalance n =
    Test.make ~name:(Printf.sprintf "io-rebalance-%d-flows" n)
      (Staged.stage (fun () ->
           let engine = Cocheck_des.Engine.create () in
           let metrics = Cocheck_sim.Metrics.create ~seg_start:0.0 ~seg_end:1e12 in
           let io =
             Cocheck_sim.Io_subsystem.create ~engine ~metrics ~bandwidth_gbs:100.0
               ~sharing:`Linear
           in
           for i = 0 to n - 1 do
             ignore
               (Cocheck_sim.Io_subsystem.start_flow io ~job:i ~nodes:(1 + (i mod 7))
                  ~kind:Cocheck_sim.Io_subsystem.Ckpt
                  ~volume_gb:(1.0 +. float_of_int (i * 17 mod 29))
                  ~on_complete:(fun () -> ()))
           done;
           Cocheck_des.Engine.run engine))
  in
  (* A full arbitration cycle at n pending requests: enqueue all, then
     grant until dry. The id-indexed pool makes enqueue/removal O(1);
     before it, the list-based pool ([pool @ [req]] + List.find/filter)
     made every cycle O(n²) on top of the waste evaluation. *)
  let arbiter_lw n =
    let module T = Cocheck_sim.Sim_types in
    let module Jobgen = Cocheck_model.Jobgen in
    let node_pool = Cocheck_sim.Node_pool.create ~nodes:(1024 * n) in
    let mk_request i =
      let nodes = 128 + (64 * (i mod 11)) in
      let spec =
        {
          Jobgen.id = i;
          class_index = 0;
          class_name = "bench";
          nodes;
          work_s = 1e6;
          input_gb = 0.0;
          output_gb = 0.0;
          ckpt_gb = 50.0 +. float_of_int (i mod 7);
          steady_io_gb = 0.0;
        }
      in
      let inst =
        {
          T.idx = i;
          spec;
          total_work = 1e6;
          entry_has_ckpt = false;
          restarts = 0;
          nodes = Option.get (Cocheck_sim.Node_pool.alloc node_pool ~job:i ~count:nodes);
          start_time = 0.0;
          period = 3600.0;
          ckpt_nominal = spec.Jobgen.ckpt_gb /. 40.0;
          activity = T.Computing_pending;
          work_done = 0.0;
          committed = 0.0;
          has_ckpt = false;
          compute_start = 0.0;
          uncommitted = Cocheck_util.Interval_ledger.create ();
          last_commit_end = float_of_int (i * 37 mod 997);
          ckpt_request_ev = T.Engine.none;
          work_done_ev = T.Engine.none;
          wait_start = 0.0;
          ckpt_content = 0.0;
          holds_token = false;
          committed_local = [||];
          local_safe_time = [||];
          local_level = 0;
          local_pause_start = 0.0;
          local_tick_ev = [||];
          local_done_ev = T.Engine.none;
          delay_ev = T.Engine.none;
          cb_work_done = ignore;
          cb_ckpt_request = ignore;
          cb_local_tick = [||];
          cb_local_done = ignore;
          live_slot = -1;
        }
      in
      {
        T.r_id = i;
        r_inst = inst;
        r_kind =
          (if i mod 3 = 0 then T.Req_io Cocheck_sim.Io_subsystem.Input else T.Req_ckpt);
        r_volume = spec.Jobgen.ckpt_gb;
        r_at = float_of_int (i * 13 mod 731);
        r_cancelled = false;
        r_slot = -1;
      }
    in
    let requests = List.init n mk_request in
    Test.make ~name:(Printf.sprintf "io-arbiter-lw-%d" n)
      (Staged.stage (fun () ->
           let (module A) =
             Cocheck_sim.Arbiter.least_waste ~node_mtbf_s:(2.0 *. 365.0 *. 86400.0)
               ~bandwidth_gbs:40.0 ()
           in
           List.iter A.enqueue requests;
           while A.select ~now:10_000.0 <> None do
             ()
           done))
  in
  (* Second list: benches that need the 3× quota and raised sample limit to
     produce a trustworthy OLS fit — either because a single iteration is so
     long the default quota yields a handful of samples (jobgen-62days has
     shipped with r² ≈ −0.03, io-rebalance-1024-flows with r² ≈ 0.58), or
     because the iteration is so short that setup noise dominates the default
     window (io-rebalance-16-flows and io-arbiter-lw-16 post-pooling). *)
  ( [
      pqueue_churn;
      pqueue_drop_churn;
      least_waste_select;
      lower_bound;
      daly_day;
      io_rebalance 128;
      arbiter_lw 128;
      arbiter_lw 1024;
    ],
    [ jobgen; io_rebalance 1024; io_rebalance 16; arbiter_lw 16 ] )

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Cold vs fully-cached execution of the same 64-record campaign: the
   second number is the fixed cost of a resume (key derivation + record
   loads), which should sit orders of magnitude under the first. *)
let run_campaign_resume pool e2e =
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Cocheck_util.Units.years 0.1)
  in
  let tiny_class =
    Cocheck_model.App_class.make ~name:"toy" ~workload_pct:100.0
      ~walltime_s:(Cocheck_util.Units.hours 2.0) ~nodes:16 ~input_pct:10.0
      ~output_pct:10.0 ~ckpt_pct:50.0 ()
  in
  let spec =
    E.Spec.make ~name:"bench-campaign" ~platform ~classes:[ tiny_class ]
      ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
      ~axis:
        (E.Spec.Bandwidth_gbs (List.init 16 (fun i -> 1.0 +. (0.25 *. float_of_int i))))
      ~reps:2 ~seed:!seed ~days:0.5 ()
  in
  let store = Filename.temp_file "cocheck-bench-store" "" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store then rm_rf store)
    (fun () ->
      let store = E.Store.open_ store in
      e2e "campaign-resume-cold-64" (fun () ->
          ignore (E.Runner.run ~pool ~store spec));
      e2e "campaign-resume-warm-64" (fun () ->
          let o = E.Runner.run ~pool ~store spec in
          assert (o.E.Runner.simulated = 0 && o.E.Runner.baselines = 0)))

(* The campaign service under concurrent clients: N simultaneous
   connections each running its own single-cell campaign, cold first
   (simulated server-side, fair-queued across per-connection tenants),
   then fully warm (answered from the sharded store — the warm pass
   asserts the server performed zero simulations). Reported: per-request
   p50/p95 latency for both passes plus warm throughput. *)
let run_campaign_serve pool =
  section "Campaign service (concurrent clients, cold vs warm)";
  let platform =
    Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
      ~node_mtbf_s:(Cocheck_util.Units.years 0.1)
  in
  let tiny_class =
    Cocheck_model.App_class.make ~name:"toy" ~workload_pct:100.0
      ~walltime_s:(Cocheck_util.Units.hours 2.0) ~nodes:16 ~input_pct:10.0
      ~output_pct:10.0 ~ckpt_pct:50.0 ()
  in
  (* One distinct single-cell campaign per client: every cold request
     simulates its own two points, so the cold pass exercises admission,
     fair queueing and concurrent store writes, not same-key dedup. *)
  let spec_of i =
    E.Spec.make ~name:(Printf.sprintf "bench-serve-%d" i) ~platform
      ~classes:[ tiny_class ] ~strategies:[ Strategy.Least_waste ] ~reps:2
      ~seed:(!seed + i) ~days:0.25 ()
  in
  let quantile lat q =
    let a = Array.copy lat in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))
  in
  let serve n =
    let dir = Filename.temp_file "cocheck-bench-serve" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let sock = Filename.temp_file "cocheck" ".sock" in
    Sys.remove sock;
    let store = E.Store.open_ dir in
    let srv = E.Service.create ~pool ~store (E.Service.listen_unix sock) in
    let th = Thread.create E.Service.run srv in
    Fun.protect
      ~finally:(fun () ->
        E.Service.stop srv;
        Thread.join th;
        if Sys.file_exists sock then Sys.remove sock;
        rm_rf dir)
      (fun () ->
        let pass ~warm =
          let lat = Array.make n 0.0 in
          let t0 = Unix.gettimeofday () in
          let client i =
            let conn = E.Service.Client.connect_unix sock in
            let t = Unix.gettimeofday () in
            let resp =
              E.Service.Client.request conn
                (E.Protocol.Campaign { spec = spec_of i; progress = false })
            in
            lat.(i) <- Unix.gettimeofday () -. t;
            E.Service.Client.close conn;
            match resp with
            | E.Protocol.Campaign_result { simulated; baselines; _ } ->
                (* the acceptance bar: a fully warm pass never simulates *)
                if warm then assert (simulated = 0 && baselines = 0)
            | _ -> assert false
          in
          let threads = Array.init n (fun i -> Thread.create client i) in
          Array.iter Thread.join threads;
          (lat, Unix.gettimeofday () -. t0)
        in
        let cold, _ = pass ~warm:false in
        let warm, warm_wall = pass ~warm:true in
        let entry suffix v =
          let name = Printf.sprintf "campaign-serve-%d-clients-%s" n suffix in
          e2e_wall := (name, v) :: !e2e_wall;
          Printf.printf "  %-40s %12.5f\n%!" name v
        in
        entry "cold-p50" (quantile cold 0.5);
        entry "cold-p95" (quantile cold 0.95);
        entry "warm-p50" (quantile warm 0.5);
        entry "warm-p95" (quantile warm 0.95);
        entry "warm-rps" (float_of_int n /. warm_wall))
  in
  serve 16;
  serve 256

let run_micro pool =
  section "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let measure ~limit ~quota tests =
    let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"cocheck" tests) in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
  in
  let stable, noisy = micro_tests () in
  let rows =
    measure ~limit:2000 ~quota:!quota_s stable
    @ measure ~limit:20000 ~quota:(5.0 *. !quota_s) noisy
  in
  List.iter
    (fun (name, r) ->
      let ns = match Analyze.OLS.estimates r with Some [ e ] -> Some e | _ -> None in
      let r2 = Analyze.OLS.r_square r in
      micro_estimates := (name, ns, r2) :: !micro_estimates;
      let est =
        match ns with
        | Some e -> Printf.sprintf "%12.1f ns/run" e
        | None -> "(no estimate)"
      in
      let r2s = match r2 with Some v -> Printf.sprintf "r²=%.4f" v | None -> "" in
      Printf.printf "  %-40s %s  %s\n" name est r2s)
    (List.sort compare rows);
  (* A 60-day Cielo campaign under Least-Waste is too slow to iterate under
     Bechamel; one wall-clock shot gives the end-to-end trajectory number. *)
  let e2e name f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    e2e_wall := (name, dt) :: !e2e_wall;
    Printf.printf "  %-40s %12.3f s (one shot)\n" name dt
  in
  let platform = Platform.cielo ~bandwidth_gbs:40.0 () in
  e2e "simulate-60day-least-waste" (fun () ->
      let cfg = Config.make ~platform ~strategy:Strategy.Least_waste ~seed:7 ~days:60.0 () in
      ignore (Simulator.run cfg));
  (* Year-scale shots the allocation-free calendar makes affordable: a full
     year of the Section 6.2 prospective machine (50 000 nodes) and a
     quarter of a mid-size 4k-node system. *)
  e2e "simulate-1year-lw-50k" (fun () ->
      let platform = Platform.prospective () in
      let cfg =
        Config.make ~platform ~strategy:Strategy.Least_waste ~seed:7 ~days:365.0 ()
      in
      ignore (Simulator.run cfg));
  e2e "simulate-90day-lw-4k" (fun () ->
      let platform =
        Platform.make ~name:"mid-4k" ~nodes:4096 ~mem_per_node_gb:64.0
          ~bandwidth_gbs:400.0 ~node_mtbf_s:(Cocheck_util.Units.years 5.0)
      in
      let cfg =
        Config.make ~platform ~strategy:Strategy.Least_waste ~seed:7 ~days:90.0 ()
      in
      ignore (Simulator.run cfg));
  (* Three-level hierarchy — node-local snapshots, a burst buffer with a
     dedicated flush edge, the PFS — under Least-Waste: the Ckpt_hierarchy
     end-to-end trajectory number. *)
  e2e "simulate-60day-lw-ml3" (fun () ->
      let multilevel =
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
      in
      let cfg =
        Config.make ~platform ~strategy:Strategy.Least_waste ~seed:7 ~days:60.0
          ~multilevel ()
      in
      ignore (Simulator.run cfg));
  run_campaign_resume pool e2e

(* Run [cfg] once with a GC probe armed when the engine is handed out,
   record its minor words per processed event under [name], and fail when
   they exceed [budget]. *)
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
        let events = Cocheck_des.Engine.events_processed e in
        if events = 0 then 0.0
        else delta.Cocheck_obs.Runtime.minor_words /. float_of_int events
    | _ -> failwith "tracing-overhead: on_engine never ran"
  in
  e2e_wall := (name, words_per_event) :: !e2e_wall;
  Printf.printf "  %s: %.1f minor words per event (budget %.0f)\n" name words_per_event budget;
  if words_per_event > budget then
    failwith
      (Printf.sprintf "tracing-overhead: %s: %.1f minor words/event exceeds the %.0f budget"
         name words_per_event budget)

(* Zero-cost-when-off contract of the tracing layer: driving the simulator
   through the fully instrumented path with the disabled tracer must give a
   bit-identical result, attach nothing to the engine, and cost within noise
   of the bare run. The identity checks are hard assertions; the timing is
   reported (and lands in the BENCH json) rather than asserted, because
   one-shot wall clock is too noisy to gate on here — `simctl bench-diff
   --fail-above` is the gate. *)
let run_tracing_overhead () =
  section "Tracing overhead (disabled tracer)";
  let module Tracing = Cocheck_obs.Tracing in
  let tracer = Tracing.disabled in
  let platform = Platform.cielo ~bandwidth_gbs:40.0 () in
  let cfg =
    Config.make ~platform ~strategy:Strategy.Least_waste ~seed:!seed ~days:60.0 ()
  in
  let iters = 30 in
  let run_plain () = Simulator.run cfg in
  let run_instrumented () =
    let flush = ref (fun () -> ()) in
    let on_engine engine =
      flush :=
        Tracing.instrument_engine tracer ~prefix:"bench"
          ~kinds:Cocheck_sim.Ev_kind.names engine
    in
    let r =
      Tracing.span tracer ~cat:"bench" "simulate" (fun () ->
          Simulator.run ~on_engine cfg)
    in
    !flush ();
    r
  in
  ignore (run_plain ());
  (* warm caches *)
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = ref (f ()) in
    for _ = 2 to iters do
      r := f ()
    done;
    (!r, (Unix.gettimeofday () -. t0) /. float_of_int iters)
  in
  let plain, t_plain = time run_plain in
  let instrumented, t_instr = time run_instrumented in
  if plain <> instrumented then
    failwith "tracing-overhead: disabled tracer changed simulation results";
  if Tracing.is_enabled tracer || Tracing.length tracer <> 0 then
    failwith "tracing-overhead: disabled tracer recorded events";
  e2e_wall := ("tracing-off-instrumented-60day", t_instr) :: !e2e_wall;
  e2e_wall := ("tracing-off-bare-60day", t_plain) :: !e2e_wall;
  Printf.printf
    "  bare %.4f s, instrumented-but-off %.4f s per run over %d runs (delta %+.1f%%)\n\
    \  results bit-identical, 0 events recorded\n"
    t_plain t_instr iters
    (if t_plain > 0.0 then 100.0 *. (t_instr -. t_plain) /. t_plain else 0.0);
  (* Allocation budgets of the event loop: minor words per processed event,
     measured with a Runtime GC probe armed when the engine is handed out
     (so config/jobgen setup is excluded). The sim is deterministic, so
     each measurement is exactly reproducible. Blowing a ceiling means
     someone put an allocation back into the per-event path.

     The 60-day Cielo run: pooled flows/requests/instances plus the
     unboxed ledgers and incremental metrics land at ~82 words/event here;
     the SoA calendar alone sat near 289, the record-per-entry calendar
     ~36 higher still. *)
  assert_words_per_event ~name:"minor-words-per-event-60day" ~budget:100.0 cfg;
  (* The year on the 50k-node prospective system, where the submission
     queue is hundreds of entries deep: ~64 words/event with the per-size
     first-fit stacks, ~90 when every blocked start rebuilt the queue
     list. The budget sits ~17 % above the measured value, so an O(queue)
     allocation per start fails it. *)
  assert_words_per_event ~name:"minor-words-per-event-1year-lw-50k" ~budget:75.0
    (Config.make ~platform:(Platform.prospective ()) ~strategy:Strategy.Least_waste
       ~seed:7 ~days:365.0 ())

(* ------------------------------------------------------------------ *)

let write_bench_json ~modes =
  let module J = Cocheck_obs.Json in
  let path =
    if !bench_out <> "" then !bench_out
    else Printf.sprintf "BENCH_%d.json" (int_of_float (Unix.time ()))
  in
  let opt_float = function Some v -> J.Float v | None -> J.Null in
  let json =
    J.Obj
      [
        ("schema", J.String "cocheck-bench/1");
        ("unix_time", J.Float (Unix.time ()));
        ("modes", J.List (List.map (fun m -> J.String m) modes));
        ("seed", J.Int !seed);
        ( "micro",
          J.List
            (List.rev_map
               (fun (name, ns, r2) ->
                 J.Obj
                   [
                     ("name", J.String name);
                     ("ns_per_run", opt_float ns);
                     ("r_square", opt_float r2);
                   ])
               !micro_estimates) );
        ( "end_to_end",
          J.Obj (List.rev_map (fun (name, s) -> (name, J.Float s)) !e2e_wall) );
        ("phases", Cocheck_obs.Timer.to_json timer);
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "bench: results written to %s\n" path

let () =
  Arg.parse spec (fun m -> modes := m :: !modes) usage;
  let modes = if !modes = [] then [ "all" ] else List.rev !modes in
  let has m = List.mem m modes || List.mem "all" modes in
  Pool.with_pool (fun pool ->
      if has "table1" then timed "table1" run_table1;
      if has "fig1" then run_fig1 pool;
      if has "fig2" then run_fig2 pool;
      if has "fig3" then run_fig3 pool;
      if has "ablations" then run_ablations pool;
      if has "micro" then timed "micro" (fun () -> run_micro pool);
      if has "serve" then timed "serve" (fun () -> run_campaign_serve pool);
      if has "tracing" then timed "tracing" run_tracing_overhead);
  (match Cocheck_obs.Timer.phases timer with
  | [] -> ()
  | _ ->
      section "Phase timings";
      print_string (Cocheck_obs.Timer.render timer));
  write_bench_json ~modes;
  Printf.printf "\nbench: done\n"
