(* Tests for the simulation substrates: metrics ledger, the shared-bandwidth
   I/O subsystem (the linear interference model), failure traces, the node
   pool and scenario configuration. *)

module Engine = Cocheck_des.Engine
module Metrics = Cocheck_sim.Metrics
module Io = Cocheck_sim.Io_subsystem
module Failure_trace = Cocheck_sim.Failure_trace
module Node_pool = Cocheck_sim.Node_pool
module Config = Cocheck_sim.Config
module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Rng = Cocheck_util.Rng
module Units = Cocheck_util.Units
module Simulator = Cocheck_sim.Simulator
module Trace = Cocheck_sim.Trace
module Ev_kind = Cocheck_sim.Ev_kind
module App_class = Cocheck_model.App_class
module Jobgen = Cocheck_model.Jobgen

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_clipping () =
  let m = Metrics.create ~seg_start:10.0 ~seg_end:20.0 in
  Metrics.record m ~t0:0.0 ~t1:15.0 ~nodes:2 Metrics.Work;
  checkf "clipped to [10,15]" 10.0 (Metrics.total m Metrics.Work);
  Metrics.record m ~t0:18.0 ~t1:30.0 ~nodes:1 Metrics.Work;
  checkf "second clip adds [18,20]" 12.0 (Metrics.total m Metrics.Work);
  Metrics.record m ~t0:25.0 ~t1:30.0 ~nodes:5 Metrics.Work;
  checkf "outside segment ignored" 12.0 (Metrics.total m Metrics.Work)

let test_metrics_progress_vs_waste () =
  let m = Metrics.create ~seg_start:0.0 ~seg_end:100.0 in
  Metrics.record m ~t0:0.0 ~t1:10.0 ~nodes:1 Metrics.Work;
  Metrics.record m ~t0:10.0 ~t1:20.0 ~nodes:1 Metrics.Regular_io;
  Metrics.record m ~t0:20.0 ~t1:30.0 ~nodes:1 Metrics.Ckpt_io;
  Metrics.record m ~t0:30.0 ~t1:40.0 ~nodes:1 Metrics.Lost_work;
  checkf "progress" 20.0 (Metrics.progress_ns m);
  checkf "waste" 20.0 (Metrics.waste_ns m)

let test_metrics_weighted_split () =
  let m = Metrics.create ~seg_start:0.0 ~seg_end:100.0 in
  Metrics.record_weighted m ~t0:0.0 ~t1:10.0 ~nodes:4 ~fraction:0.25
    ~progress:Metrics.Regular_io ~waste:Metrics.Io_dilation;
  checkf "progress share" 10.0 (Metrics.total m Metrics.Regular_io);
  checkf "waste share" 30.0 (Metrics.total m Metrics.Io_dilation)

let test_metrics_weighted_conserves =
  QCheck.Test.make ~name:"weighted_split_conserves_node_seconds" ~count:300
    QCheck.(triple (float_range 0.0 50.0) (float_range 0.0 50.0) (float_range 0.0 1.0))
    (fun (a, b, frac) ->
      let t0 = Float.min a b and t1 = Float.max a b in
      let m = Metrics.create ~seg_start:0.0 ~seg_end:100.0 in
      Metrics.record_weighted m ~t0 ~t1 ~nodes:3 ~fraction:frac
        ~progress:Metrics.Regular_io ~waste:Metrics.Io_dilation;
      let total =
        Metrics.total m Metrics.Regular_io +. Metrics.total m Metrics.Io_dilation
      in
      Cocheck_util.Numerics.fequal ~eps:1e-9 total ((t1 -. t0) *. 3.0))

let test_metrics_reversed_interval_rejected () =
  let m = Metrics.create ~seg_start:0.0 ~seg_end:1.0 in
  Alcotest.check_raises "reversed rejected"
    (Invalid_argument "Metrics.record: reversed interval") (fun () ->
      Metrics.record m ~t0:2.0 ~t1:1.0 ~nodes:1 Metrics.Work)

let test_metrics_kind_partition () =
  (* Every kind is exactly one of progress/waste. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (Metrics.kind_name k ^ " classified") true
        (Metrics.is_progress k || not (Metrics.is_progress k)))
    Metrics.all_kinds;
  Alcotest.(check int) "eight kinds" 8 (List.length Metrics.all_kinds)

let test_metrics_enrolled () =
  let m = Metrics.create ~seg_start:0.0 ~seg_end:10.0 in
  Metrics.record_enrolled m ~t0:5.0 ~t1:25.0 ~nodes:2;
  checkf "enrolled clipped" 10.0 (Metrics.enrolled_ns m)

(* ------------------------------------------------------------------ *)
(* Io_subsystem                                                         *)
(* ------------------------------------------------------------------ *)

let mk_io ?(bandwidth = 10.0) ?(sharing = `Linear) () =
  let engine = Engine.create () in
  let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
  let io = Io.create ~engine ~metrics ~bandwidth_gbs:bandwidth ~sharing in
  (engine, metrics, io)

let test_io_single_flow_full_bandwidth () =
  let engine, _, io = mk_io () in
  let done_at = ref nan in
  ignore
    (Io.start_flow io ~nodes:4 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> done_at := Engine.now engine));
  Engine.run engine;
  checkf "100 GB at 10 GB/s" ~eps:1e-6 10.0 !done_at

let test_io_linear_sharing_two_equal_flows () =
  (* Section 3.2's example: two equal concurrent transfers each take twice
     as long under the linear model. *)
  let engine, _, io = mk_io () in
  let t1 = ref nan and t2 = ref nan in
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t1 := Engine.now engine));
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t2 := Engine.now engine));
  Engine.run engine;
  checkf "both finish at 20" ~eps:1e-6 20.0 !t1;
  checkf "both finish at 20" ~eps:1e-6 20.0 !t2

let test_io_sequential_beats_concurrent_average () =
  (* Ordered vs Oblivious on the same two transfers: sequential service
     completes the first in 10 and the second in 20 — lower average. *)
  let engine, _, io = mk_io () in
  let t1 = ref nan and t2 = ref nan in
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () ->
         t1 := Engine.now engine;
         ignore
           (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
              ~on_complete:(fun () -> t2 := Engine.now engine))));
  Engine.run engine;
  checkf "first at 10" ~eps:1e-6 10.0 !t1;
  checkf "second at 20" ~eps:1e-6 20.0 !t2

let test_io_weighted_sharing () =
  (* Weights 3:1 -> rates 7.5 and 2.5 GB/s. Small flow (25 GB at 2.5) and
     large flow (75 GB at 7.5) both would finish at t=10. *)
  let engine, _, io = mk_io () in
  let t_small = ref nan and t_big = ref nan in
  ignore
    (Io.start_flow io ~nodes:3 ~kind:Io.Input ~volume_gb:75.0
       ~on_complete:(fun () -> t_big := Engine.now engine));
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:25.0
       ~on_complete:(fun () -> t_small := Engine.now engine));
  Engine.run engine;
  checkf "big at 10" ~eps:1e-6 10.0 !t_big;
  checkf "small at 10" ~eps:1e-6 10.0 !t_small

let test_io_rate_rebalances_on_completion () =
  (* Flow A: 100 GB, flow B: 50 GB, equal weights. B finishes at t=10
     (50 GB at 5 GB/s), then A runs at full 10 GB/s: remaining 50 GB in 5 s
     -> A completes at 15. *)
  let engine, _, io = mk_io () in
  let ta = ref nan and tb = ref nan in
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> ta := Engine.now engine));
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:50.0
       ~on_complete:(fun () -> tb := Engine.now engine));
  Engine.run engine;
  checkf "B at 10" ~eps:1e-6 10.0 !tb;
  checkf "A at 15" ~eps:1e-6 15.0 !ta

let test_io_unshared_no_interference () =
  let engine, _, io = mk_io ~sharing:`Unshared () in
  let t1 = ref nan and t2 = ref nan in
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t1 := Engine.now engine));
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t2 := Engine.now engine));
  Engine.run engine;
  checkf "no slowdown" ~eps:1e-6 10.0 !t1;
  checkf "no slowdown" ~eps:1e-6 10.0 !t2

let test_io_zero_volume_completes_async () =
  let engine, _, io = mk_io () in
  let fired = ref false in
  ignore
    (Io.start_flow io ~nodes:1 ~kind:Io.Output ~volume_gb:0.0
       ~on_complete:(fun () -> fired := true));
  Alcotest.(check bool) "not synchronous" false !fired;
  Engine.run engine;
  Alcotest.(check bool) "fires via calendar" true !fired

let test_io_abort_mid_transfer () =
  let engine, _, io = mk_io () in
  let completed = ref false in
  let flow =
    Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:100.0
      ~on_complete:(fun () -> completed := true)
  in
  ignore
    (Calendar.at engine ~time:5.0 (fun _ -> Io.abort_flow io flow));
  Engine.run engine;
  Alcotest.(check bool) "no completion after abort" false !completed;
  Alcotest.(check int) "no active flows" 0 (Io.active_count io)

let test_io_abort_idempotent () =
  let engine, _, io = mk_io () in
  let flow =
    Io.start_flow io ~nodes:1 ~kind:Io.Input ~volume_gb:10.0
      ~on_complete:(fun () -> ())
  in
  Io.abort_flow io flow;
  Io.abort_flow io flow;
  Engine.run engine;
  Alcotest.(check pass) "double abort ok" () ()

let test_io_metrics_regular_split () =
  (* Two equal regular flows at half rate: progress fraction 0.5 each. *)
  let engine, metrics, io = mk_io () in
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> ()));
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Output ~volume_gb:100.0
       ~on_complete:(fun () -> ()));
  Engine.run engine;
  (* Each: 2 nodes x 20 s = 40 node-seconds, half progress, half dilation. *)
  checkf "regular-io" ~eps:1e-6 40.0 (Metrics.total metrics Metrics.Regular_io);
  checkf "dilation" ~eps:1e-6 40.0 (Metrics.total metrics Metrics.Io_dilation)

let test_io_metrics_ckpt_is_waste () =
  let engine, metrics, io = mk_io () in
  ignore
    (Io.start_flow io ~nodes:3 ~kind:Io.Ckpt ~volume_gb:50.0
       ~on_complete:(fun () -> ()));
  Engine.run engine;
  checkf "ckpt-io node-seconds" ~eps:1e-6 15.0 (Metrics.total metrics Metrics.Ckpt_io);
  checkf "no progress from ckpt" 0.0 (Metrics.progress_ns metrics)

let test_io_metrics_recovery_is_waste () =
  let engine, metrics, io = mk_io () in
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Recovery ~volume_gb:20.0
       ~on_complete:(fun () -> ()));
  Engine.run engine;
  checkf "recovery node-seconds" ~eps:1e-6 4.0 (Metrics.total metrics Metrics.Recovery_io)

let test_io_volume_conservation =
  (* Whatever the arrival pattern, total transferred volume equals the sum
     of flow volumes once everything completes. *)
  QCheck.Test.make ~name:"io_conserves_volume" ~count:100
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 10) (pair (int_range 1 8) (float_range 1.0 200.0)))
    (fun flows ->
      let engine, _, io = mk_io () in
      List.iter
        (fun (nodes, vol) ->
          ignore
            (Io.start_flow io ~nodes ~kind:Io.Input ~volume_gb:vol
               ~on_complete:(fun () -> ())))
        flows;
      Engine.run engine;
      let expected = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 flows in
      Cocheck_util.Numerics.fequal ~eps:1e-6 (Io.transferred_gb io) expected)

let test_io_aggregate_rate_never_exceeds_bandwidth () =
  (* With linear sharing, the sum of rates equals the bandwidth whenever
     flows are active. *)
  let engine, _, io = mk_io () in
  let f1 =
    Io.start_flow io ~nodes:5 ~kind:Io.Input ~volume_gb:100.0
      ~on_complete:(fun () -> ())
  in
  let f2 =
    Io.start_flow io ~nodes:3 ~kind:Io.Ckpt ~volume_gb:100.0
      ~on_complete:(fun () -> ())
  in
  ignore
    (Calendar.at engine ~time:1.0 (fun _ ->
         let r1 = Option.value ~default:0.0 (Io.active_rate io f1) in
         let r2 = Option.value ~default:0.0 (Io.active_rate io f2) in
         checkf "rates sum to bandwidth" ~eps:1e-9 10.0 (r1 +. r2);
         checkf "weighted 5:3" ~eps:1e-9 6.25 r1));
  Engine.run engine

let test_io_degraded_single_flow_property =
  QCheck.Test.make ~name:"degraded_lone_flow_full_rate" ~count:100
    QCheck.(pair (float_range 0.0 5.0) (float_range 1.0 500.0))
    (fun (alpha, vol) ->
      let engine = Engine.create () in
      let metrics = Metrics.create ~seg_start:0.0 ~seg_end:1e9 in
      let io = Io.create ~engine ~metrics ~bandwidth_gbs:10.0 ~sharing:(`Degraded alpha) in
      let t = ref nan in
      ignore
        (Io.start_flow io ~nodes:3 ~kind:Io.Input ~volume_gb:vol
           ~on_complete:(fun () -> t := Engine.now engine));
      Engine.run engine;
      Cocheck_util.Numerics.fequal ~eps:1e-6 !t (vol /. 10.0))

let test_io_drain_records_no_node_seconds () =
  let engine, metrics, io = mk_io () in
  ignore
    (Io.start_flow io ~nodes:4 ~kind:Io.Drain ~volume_gb:50.0
       ~on_complete:(fun () -> ()));
  Engine.run engine;
  checkf "drain holds no nodes" 0.0
    (Metrics.progress_ns metrics +. Metrics.waste_ns metrics)

let test_io_drain_interferes_with_foreground () =
  (* A drain halves a concurrent equal-weight foreground transfer's rate. *)
  let engine, _, io = mk_io () in
  let t = ref nan in
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Drain ~volume_gb:100.0
       ~on_complete:(fun () -> ()));
  ignore
    (Io.start_flow io ~nodes:2 ~kind:Io.Input ~volume_gb:100.0
       ~on_complete:(fun () -> t := Engine.now engine));
  Engine.run engine;
  checkf "foreground slowed by drain" ~eps:1e-6 20.0 !t

(* ------------------------------------------------------------------ *)
(* Failure_trace                                                        *)
(* ------------------------------------------------------------------ *)

let test_failures_increasing_times () =
  (* Non-decreasing, not strictly increasing: gaps are clamped at 0.0 (not
     some epsilon), so coincident events are legal at extreme rates. *)
  let t =
    Failure_trace.create ~rng:(Rng.create ~seed:1) ~nodes:100 ~node_mtbf_s:1e5 ()
  in
  let prev = ref 0.0 in
  for _ = 1 to 1000 do
    let e = Failure_trace.next t in
    Alcotest.(check bool) "non-decreasing" true (e.Failure_trace.time >= !prev);
    prev := e.time
  done

let test_failures_tiny_gaps_unbiased () =
  (* Regression: the gap clamp used to be [Float.max dt 1e-9]. At 50k nodes
     with node_mtbf_s = 2.5e-5 the true mean gap is 5e-10 — below the old
     floor — so every draw was inflated to ≥1e-9 and the realized mean came
     out ≥2× the nominal rate. With the 0.0 clamp the sample mean must sit
     within sampling noise of the truth. *)
  let nodes = 50_000 and node_mtbf_s = 2.5e-5 in
  let t = Failure_trace.create ~rng:(Rng.create ~seed:11) ~nodes ~node_mtbf_s () in
  let n = 50_000 in
  let last = ref 0.0 in
  for _ = 1 to n do
    last := (Failure_trace.next t).Failure_trace.time
  done;
  let mean = !last /. float_of_int n in
  let expect = node_mtbf_s /. float_of_int nodes in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.3e within 5%% of %.3e (old clamp gave >= 2x)" mean expect)
    true
    (mean > 0.95 *. expect && mean < 1.05 *. expect)

let test_failures_node_range =
  QCheck.Test.make ~name:"failure_nodes_in_range" ~count:50
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, nodes) ->
      let t = Failure_trace.create ~rng:(Rng.create ~seed) ~nodes ~node_mtbf_s:1e6 () in
      List.for_all
        (fun _ ->
          let e = Failure_trace.next t in
          e.Failure_trace.node >= 0 && e.node < nodes)
        (List.init 20 Fun.id))

let test_failures_rate () =
  (* 1000 nodes with 1e6 s MTBF -> system MTBF 1000 s. Mean of 20k
     inter-arrivals should be within a few percent. *)
  let t =
    Failure_trace.create ~rng:(Rng.create ~seed:5) ~nodes:1000 ~node_mtbf_s:1e6 ()
  in
  let n = 20_000 in
  let last = ref 0.0 in
  for _ = 1 to n do
    last := (Failure_trace.next t).Failure_trace.time
  done;
  let mean = !last /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean inter-arrival %.1f near 1000" mean)
    true
    (mean > 950.0 && mean < 1050.0);
  checkf "system mtbf accessor" 1000.0 (Failure_trace.system_mtbf t)

let test_failures_peek_consistent () =
  let t = Failure_trace.create ~rng:(Rng.create ~seed:9) ~nodes:10 ~node_mtbf_s:1e4 () in
  let p = Failure_trace.peek_time t in
  let e = Failure_trace.next t in
  checkf "peek = next" ~eps:0.0 p e.Failure_trace.time;
  Alcotest.(check int) "count after one" 1 (Failure_trace.generated t)

let test_failures_deterministic () =
  let mk () = Failure_trace.create ~rng:(Rng.create ~seed:77) ~nodes:50 ~node_mtbf_s:1e5 () in
  let a = mk () and b = mk () in
  for _ = 1 to 100 do
    let ea = Failure_trace.next a and eb = Failure_trace.next b in
    checkf "same time" ~eps:0.0 ea.Failure_trace.time eb.Failure_trace.time;
    Alcotest.(check int) "same node" ea.node eb.node
  done

(* ------------------------------------------------------------------ *)
(* Node_pool                                                            *)
(* ------------------------------------------------------------------ *)

let test_pool_alloc_release () =
  let p = Node_pool.create ~nodes:10 in
  Alcotest.(check int) "all free" 10 (Node_pool.free_count p);
  match Node_pool.alloc p ~job:3 ~count:4 with
  | None -> Alcotest.fail "alloc should succeed"
  | Some grant ->
      Alcotest.(check int) "4 allocated" 4 (Node_pool.size grant);
      Alcotest.(check int) "6 free" 6 (Node_pool.free_count p);
      List.iter
        (fun n -> Alcotest.(check (option int)) "owner recorded" (Some 3) (Node_pool.owner p n))
        (Node_pool.to_list grant);
      Node_pool.release p grant;
      Alcotest.(check int) "all free again" 10 (Node_pool.free_count p)

let test_pool_exhaustion () =
  let p = Node_pool.create ~nodes:5 in
  Alcotest.(check bool) "too big fails" true (Node_pool.alloc p ~job:0 ~count:6 = None);
  ignore (Node_pool.alloc p ~job:0 ~count:5);
  Alcotest.(check bool) "full pool fails" true (Node_pool.alloc p ~job:1 ~count:1 = None)

let test_pool_double_release () =
  let p = Node_pool.create ~nodes:3 in
  let ids = Option.get (Node_pool.alloc p ~job:0 ~count:2) in
  Node_pool.release p ids;
  Alcotest.check_raises "double release"
    (Invalid_argument "Node_pool.release: node already free") (fun () ->
      Node_pool.release p ids)

let test_pool_distinct_nodes =
  QCheck.Test.make ~name:"pool_allocations_disjoint" ~count:100
    QCheck.(pair (int_range 1 50) (int_range 1 50))
    (fun (a, b) ->
      let p = Node_pool.create ~nodes:100 in
      let ia = Option.get (Node_pool.alloc p ~job:0 ~count:a) in
      let ib = Option.get (Node_pool.alloc p ~job:1 ~count:b) in
      let module S = Set.Make (Int) in
      let sa = S.of_list (Node_pool.to_list ia) and sb = S.of_list (Node_pool.to_list ib) in
      S.cardinal sa = a && S.cardinal sb = b && S.is_empty (S.inter sa sb))

let test_pool_free_node_has_no_owner () =
  let p = Node_pool.create ~nodes:2 in
  Alcotest.(check (option int)) "free node" None (Node_pool.owner p 0)

let test_pool_churn =
  (* Random alloc/release interleavings fragment the range lists; the pool
     must conserve node counts, keep ownership exact, and coalesce well
     enough that a full-machine allocation succeeds once all is free. *)
  QCheck.Test.make ~name:"pool_random_churn_consistent" ~count:100
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 40) (int_range 1 20)))
    (fun (seed, sizes) ->
      let rng = Cocheck_util.Rng.create ~seed in
      let n = 100 in
      let p = Node_pool.create ~nodes:n in
      let live = ref [] in
      let ok = ref true in
      List.iteri
        (fun job count ->
          (match Node_pool.alloc p ~job ~count with
          | Some g ->
              ok := !ok && Node_pool.size g = count;
              live := (job, g) :: !live
          | None -> ok := !ok && Node_pool.free_count p < count);
          (* Randomly retire one live grant. *)
          match !live with
          | (j, g) :: rest when Cocheck_util.Rng.bool rng ->
              ok :=
                !ok
                && List.for_all (fun nd -> Node_pool.owner p nd = Some j) (Node_pool.to_list g);
              Node_pool.release p g;
              live := rest
          | _ -> ())
        sizes;
      List.iter (fun (_, g) -> Node_pool.release p g) !live;
      !ok && Node_pool.free_count p = n && Node_pool.alloc p ~job:999 ~count:n <> None)

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_config_defaults () =
  let platform = Platform.cielo () in
  let cfg = Config.make ~platform ~strategy:Strategy.Least_waste () in
  checkf "segment starts after one day" (Units.days 1.0) cfg.Config.seg_start;
  checkf "segment covers 60 days" (Units.days 61.0) cfg.Config.seg_end;
  checkf "horizon one day later" (Units.days 62.0) cfg.Config.horizon;
  Alcotest.(check bool) "failures on" true cfg.Config.with_failures;
  Alcotest.(check int) "APEX classes by default" 4 (List.length cfg.Config.classes)

let test_config_baseline_forces_no_failures () =
  let platform = Platform.cielo () in
  let cfg = Config.make ~platform ~strategy:Strategy.Baseline () in
  Alcotest.(check bool) "baseline has no failures" false cfg.Config.with_failures

let test_config_baseline_of () =
  let platform = Platform.cielo () in
  let cfg = Config.make ~platform ~strategy:Strategy.Least_waste ~seed:9 () in
  let b = Config.baseline_of cfg in
  Alcotest.(check bool) "strategy is baseline" true (b.Config.strategy = Strategy.Baseline);
  Alcotest.(check bool) "failures off" false b.Config.with_failures;
  Alcotest.(check int) "seed preserved" 9 b.Config.seed

let test_config_prospective_scales_classes () =
  let platform = Platform.prospective () in
  let cfg = Config.make ~platform ~strategy:Strategy.Least_waste () in
  let eap = List.hd cfg.Config.classes in
  Alcotest.(check bool) "EAP scaled up" true (eap.Cocheck_model.App_class.nodes > 2048)

let test_config_validation () =
  let platform = Platform.cielo () in
  Alcotest.(check bool) "empty classes rejected" true
    (match Config.make ~platform ~classes:[] ~strategy:Strategy.Least_waste () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* One pending event per instance                                      *)
(* ------------------------------------------------------------------ *)

(* A compute phase ends at the first of three boundaries: the work running
   out, the checkpoint request, a snapshot tick. Only the first sits on
   the calendar, under the instance's one handle; a request or tick that
   leaves the instance computing hands the handle to work-done. These
   runs pin the completion instant of each such path to the float
   [compute_start + left], and check that a job never has more than one
   pending event of its own. *)

let lazy_platform =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:1.0
    ~node_mtbf_s:(Units.years 2.0)

let lazy_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

(* The delay from the start of work to the first checkpoint request under
   Least-Waste: the Daly period minus the commit time. *)
let request_delay =
  let c = App_class.ckpt_time lazy_class ~platform:lazy_platform in
  Float.max 0.0 (Cocheck_core.Daly.period_for lazy_class ~platform:lazy_platform -. c)

let lazy_spec ~id ?(input_gb = 0.0) work_s =
  {
    Jobgen.id;
    class_index = 0;
    class_name = "toy";
    nodes = 16;
    work_s;
    input_gb;
    output_gb = 0.0;
    ckpt_gb = 8.0;
    steady_io_gb = 0.0;
  }

(* Job- plus ckpt-kind (scheduled, fired, cancelled): the instances' own
   events, apart from transfers and failures. *)
let own_counts st =
  List.fold_left
    (fun (s, f, c) (k, s', f', c') ->
      if k = "job" || k = "ckpt" then (s + s', f + f', c + c') else (s, f, c))
    (0, 0, 0) (Engine.stats_by_kind st)

(* Run hand-built jobs without failures, the segment opened at 0 so every
   node-second counts, and return the result, the event stream and the
   most job- and ckpt-kind events ever pending at once between two
   events. The tick runs after each pop, before its handler, so the
   previous tick's fired count gives what was pending before the pop. *)
let lazy_run ?multilevel specs =
  let cfg =
    Config.make ~platform:lazy_platform ~classes:[ lazy_class ] ~strategy:Strategy.Least_waste
      ~days:1.0 ~with_failures:false ?multilevel ()
  in
  let cfg = { cfg with Config.seg_start = 0.0 } in
  let events = ref [] and stats = ref None in
  let fired_before = ref 0 and most = ref 0 in
  let on_tick _ =
    let s, f, c = own_counts (Option.get !stats) in
    most := max !most (s - c - !fired_before);
    fired_before := f
  in
  let r =
    Simulator.run ~specs:(Array.of_list specs)
      ~observe:(fun e -> events := e :: !events)
      ~on_engine:(fun e ->
        stats := Some (Engine.attach_stats e ~kinds:Ev_kind.names ~tick_every:1 ~on_tick ()))
      cfg
  in
  let s, f, c = own_counts (Option.get !stats) in
  (r, List.rev !events, max !most (s - c - f))

let first_time events ~job what =
  match List.find_opt (fun (e : Trace.event) -> e.job = job && what e.kind) events with
  | Some e -> e.time
  | None -> Alcotest.failf "job %d: event not found" job

let is_kind k (k' : Trace.kind) = k = k'

let check_conserved what (r : Simulator.result) =
  Alcotest.(check bool) (what ^ ": progress + waste = enrolled") true
    (Cocheck_util.Numerics.fequal ~eps:1e-9 (r.progress_ns +. r.waste_ns) r.enrolled_ns);
  Alcotest.(check bool) (what ^ ": enrolled time counted") true (r.enrolled_ns > 0.0)

let test_lazy_pending_request_completes () =
  (* Job 0's 10 TB input holds the token for 10 000 s. Job 1 reads
     nothing, computes from t = 0, and requests a checkpoint 100 s before
     its work runs out: the request waits for the token, and the
     work-done boundary ends the job. *)
  let work = request_delay +. 100.0 in
  let r, events, _ =
    lazy_run [ lazy_spec ~id:0 ~input_gb:10_000.0 100.0; lazy_spec ~id:1 work ]
  in
  let t_in = first_time events ~job:1 (is_kind Trace.Input_done) in
  let t_req = first_time events ~job:1 (is_kind Trace.Ckpt_requested) in
  let t_done = first_time events ~job:1 (is_kind Trace.Work_completed) in
  Alcotest.(check bool) "request before completion" true (t_req < t_done);
  Alcotest.(check bool) "token still held by job 0's input" true
    (t_done < first_time events ~job:0 (is_kind Trace.Input_done));
  Alcotest.(check (float 0.0)) "completes at compute_start + left" (t_in +. work) t_done;
  Alcotest.(check bool) "no commit started" false
    (List.exists (fun (e : Trace.event) -> e.job = 1 && e.kind = Trace.Ckpt_started) events);
  Alcotest.(check int) "both jobs complete" 2 r.jobs_completed;
  check_conserved "pending request" r

let test_lazy_request_within_eps () =
  (* The request fires 0.5 µs before the work runs out, inside
     [eps_work]: no checkpoint, and the job completes on time. *)
  let work = request_delay +. 5e-7 in
  let r, events, _ = lazy_run [ lazy_spec ~id:0 work ] in
  let t_in = first_time events ~job:0 (is_kind Trace.Input_done) in
  let t_req = first_time events ~job:0 (is_kind Trace.Ckpt_requested) in
  let t_done = first_time events ~job:0 (is_kind Trace.Work_completed) in
  Alcotest.(check bool) "request strictly first" true (t_req < t_done);
  Alcotest.(check (float 0.0)) "completes at compute_start + left" (t_in +. work) t_done;
  Alcotest.(check int) "no commit" 0 r.ckpts_committed;
  Alcotest.(check int) "job completes" 1 r.jobs_completed;
  check_conserved "request within eps" r

let snapshot_every period =
  Config.local_level ~period_s:period ~cost_s:5.0 ~recovery_s:30.0 ~soft_fraction:0.5

let test_lazy_tick_before_work_done () =
  (* A 600 s snapshot tick comes before the work runs out at 1000 s: the
     snapshot ends at 605 s and compute resumes with 400 s left. *)
  let r, events, _ = lazy_run ~multilevel:(snapshot_every 600.0) [ lazy_spec ~id:0 1000.0 ] in
  let t_in = first_time events ~job:0 (is_kind Trace.Input_done) in
  let t_done = first_time events ~job:0 (is_kind Trace.Work_completed) in
  let resume = t_in +. 600.0 +. 5.0 in
  Alcotest.(check (float 0.0)) "completes at the resumed compute_start + left"
    (resume +. (1000.0 -. 600.0))
    t_done;
  Alcotest.(check int) "job completes" 1 r.jobs_completed;
  check_conserved "tick first" r

let test_lazy_tick_within_eps () =
  (* The tick fires 0.5 µs before the work runs out: no snapshot, and the
     work-done boundary completes the job. *)
  let work = 600.0 +. 5e-7 in
  let r, events, _ = lazy_run ~multilevel:(snapshot_every 600.0) [ lazy_spec ~id:0 work ] in
  let t_in = first_time events ~job:0 (is_kind Trace.Input_done) in
  let t_done = first_time events ~job:0 (is_kind Trace.Work_completed) in
  Alcotest.(check (float 0.0)) "completes at compute_start + left" (t_in +. work) t_done;
  Alcotest.(check int) "job completes" 1 r.jobs_completed;
  check_conserved "tick within eps" r

let test_lazy_one_pending_event () =
  (* A job long enough for several commits and, with snapshot levels,
     several snapshots: whatever boundaries it has armed, at no point
     between two events does it have more than one event of its own
     pending. The one level ticks every two request delays, so each
     commit moves the pending handle from the tick to the new request. *)
  let two_levels =
    {
      Config.levels =
        [
          Config.Snapshot
            { Config.sl_period_s = 600.0; sl_cost_s = 5.0; sl_recovery_s = 30.0; sl_survival = 0.5 };
          Config.Snapshot
            { Config.sl_period_s = 1500.0; sl_cost_s = 20.0; sl_recovery_s = 60.0; sl_survival = 0.2 };
        ];
    }
  in
  List.iter
    (fun (what, multilevel) ->
      let r, _, most = lazy_run ?multilevel [ lazy_spec ~id:0 20_000.0 ] in
      Alcotest.(check int) (what ^ ": at most one pending event") 1 most;
      Alcotest.(check bool) (what ^ ": commits") true (r.ckpts_committed >= 2);
      Alcotest.(check int) (what ^ ": job completes") 1 r.jobs_completed;
      check_conserved what r)
    [
      ("no snapshot level", None);
      ("one level", Some (snapshot_every (2.0 *. request_delay)));
      ("two levels", Some two_levels);
    ]

(* ------------------------------------------------------------------ *)
(* Trace ring buffer                                                    *)
(* ------------------------------------------------------------------ *)

let trace_event i =
  { Trace.time = float_of_int i; job = i; inst = i; kind = Trace.Ckpt_requested }

let test_trace_no_wrap () =
  let t = Trace.create ~capacity:8 () in
  for i = 0 to 4 do
    Trace.record t (trace_event i)
  done;
  Alcotest.(check int) "length" 5 (Trace.length t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t);
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun e -> e.Trace.job) (Trace.events t))

let test_trace_wraparound () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record t (trace_event i)
  done;
  Alcotest.(check int) "capacity retained" 4 (Trace.length t);
  Alcotest.(check int) "dropped = total - capacity" 6 (Trace.dropped t);
  Alcotest.(check (list int)) "most recent, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.job) (Trace.events t));
  let times = List.map (fun e -> e.Trace.time) (Trace.events t) in
  Alcotest.(check bool) "chronological" true (List.sort compare times = times)

let test_trace_dump_header () =
  let t = Trace.create ~capacity:3 () in
  for i = 0 to 6 do
    Trace.record t (trace_event i)
  done;
  let dump = Trace.dump t in
  let header = "(4 earlier events dropped)" in
  Alcotest.(check bool) "dump announces drops" true
    (String.length dump >= String.length header
    && String.sub dump 0 (String.length header) = header);
  let undropped = Trace.dump (Trace.create ~capacity:3 ()) in
  Alcotest.(check string) "empty trace dumps nothing" "" undropped

let test_trace_wrap_exactly_at_capacity () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 3 do
    Trace.record t (trace_event i)
  done;
  Alcotest.(check int) "full but nothing dropped" 0 (Trace.dropped t);
  Trace.record t (trace_event 4);
  Alcotest.(check int) "one past capacity drops one" 1 (Trace.dropped t);
  Alcotest.(check (list int)) "oldest evicted" [ 1; 2; 3; 4 ]
    (List.map (fun e -> e.Trace.job) (Trace.events t))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.sim-substrates"
    [
      ( "metrics",
        [
          Alcotest.test_case "segment clipping" `Quick test_metrics_clipping;
          Alcotest.test_case "progress vs waste" `Quick test_metrics_progress_vs_waste;
          Alcotest.test_case "weighted split" `Quick test_metrics_weighted_split;
          Alcotest.test_case "reversed interval" `Quick test_metrics_reversed_interval_rejected;
          Alcotest.test_case "kind partition" `Quick test_metrics_kind_partition;
          Alcotest.test_case "enrolled clipping" `Quick test_metrics_enrolled;
        ]
        @ qsuite [ test_metrics_weighted_conserves ] );
      ( "io_subsystem",
        [
          Alcotest.test_case "single flow full bandwidth" `Quick test_io_single_flow_full_bandwidth;
          Alcotest.test_case "linear sharing (paper 3.2)" `Quick test_io_linear_sharing_two_equal_flows;
          Alcotest.test_case "sequential service (paper 3.2)" `Quick test_io_sequential_beats_concurrent_average;
          Alcotest.test_case "weighted shares" `Quick test_io_weighted_sharing;
          Alcotest.test_case "rebalance on completion" `Quick test_io_rate_rebalances_on_completion;
          Alcotest.test_case "unshared baseline" `Quick test_io_unshared_no_interference;
          Alcotest.test_case "zero volume async" `Quick test_io_zero_volume_completes_async;
          Alcotest.test_case "abort mid-transfer" `Quick test_io_abort_mid_transfer;
          Alcotest.test_case "abort idempotent" `Quick test_io_abort_idempotent;
          Alcotest.test_case "regular split metrics" `Quick test_io_metrics_regular_split;
          Alcotest.test_case "ckpt is waste" `Quick test_io_metrics_ckpt_is_waste;
          Alcotest.test_case "recovery is waste" `Quick test_io_metrics_recovery_is_waste;
          Alcotest.test_case "rates sum to bandwidth" `Quick test_io_aggregate_rate_never_exceeds_bandwidth;
          Alcotest.test_case "drain holds no nodes" `Quick test_io_drain_records_no_node_seconds;
          Alcotest.test_case "drain interferes" `Quick test_io_drain_interferes_with_foreground;
        ]
        @ qsuite [ test_io_volume_conservation; test_io_degraded_single_flow_property ] );
      ( "failure_trace",
        [
          Alcotest.test_case "increasing times" `Quick test_failures_increasing_times;
          Alcotest.test_case "tiny gaps unbiased" `Quick test_failures_tiny_gaps_unbiased;
          Alcotest.test_case "rate matches MTBF" `Quick test_failures_rate;
          Alcotest.test_case "peek consistent" `Quick test_failures_peek_consistent;
          Alcotest.test_case "deterministic" `Quick test_failures_deterministic;
        ]
        @ qsuite [ test_failures_node_range ] );
      ( "node_pool",
        [
          Alcotest.test_case "alloc/release" `Quick test_pool_alloc_release;
          Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
          Alcotest.test_case "double release" `Quick test_pool_double_release;
          Alcotest.test_case "free node ownerless" `Quick test_pool_free_node_has_no_owner;
        ]
        @ qsuite [ test_pool_distinct_nodes; test_pool_churn ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "baseline forces no failures" `Quick test_config_baseline_forces_no_failures;
          Alcotest.test_case "baseline_of" `Quick test_config_baseline_of;
          Alcotest.test_case "prospective classes scaled" `Quick test_config_prospective_scales_classes;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "lazy-arming",
        [
          Alcotest.test_case "pending request completes" `Quick
            test_lazy_pending_request_completes;
          Alcotest.test_case "request within eps" `Quick test_lazy_request_within_eps;
          Alcotest.test_case "tick before work-done" `Quick test_lazy_tick_before_work_done;
          Alcotest.test_case "tick within eps" `Quick test_lazy_tick_within_eps;
          Alcotest.test_case "one pending event" `Quick test_lazy_one_pending_event;
        ] );
      ( "trace",
        [
          Alcotest.test_case "no wraparound" `Quick test_trace_no_wrap;
          Alcotest.test_case "wraparound keeps newest" `Quick test_trace_wraparound;
          Alcotest.test_case "dump drop header" `Quick test_trace_dump_header;
          Alcotest.test_case "boundary at capacity" `Quick test_trace_wrap_exactly_at_capacity;
        ] );
    ]
