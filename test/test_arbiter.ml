(* The arbiter layer in isolation: every policy honors the shared contract
   (arrival order visible, cancelled requests never granted, live counts
   right), and the pool-scanning policies agree with list-based oracles. *)

module T = Cocheck_sim.Sim_types
module Arbiter = Cocheck_sim.Arbiter
module Node_pool = Cocheck_sim.Node_pool
module Io = Cocheck_sim.Io_subsystem
module Jobgen = Cocheck_model.Jobgen
module Candidate = Lw_reference.Candidate

let mtbf_s = 2.0 *. 365.0 *. 86400.0
let bandwidth_gbs = 40.0
let node_pool = Node_pool.create ~nodes:1_000_000

(* The arbiters never touch an instance's transfer; the record still
   names a subsystem. *)
let placeholder_io =
  Io.create ~engine:(Cocheck_des.Engine.create ())
    ~metrics:(Cocheck_sim.Metrics.create ~seg_start:0.0 ~seg_end:1.0)
    ~bandwidth_gbs:1.0 ~sharing:`Linear

let mk_inst ~idx ~nodes ~last_commit_end =
  let spec =
    {
      Jobgen.id = idx;
      class_index = 0;
      class_name = "test";
      nodes;
      work_s = 1e6;
      input_gb = 0.0;
      output_gb = 0.0;
      ckpt_gb = 100.0;
      steady_io_gb = 0.0;
    }
  in
  let inst =
    T.blank_inst ~spec ~nsnap:0
      ~nodes:(Option.get (Node_pool.alloc node_pool ~job:idx ~count:nodes))
      ~io:placeholder_io
  in
  inst.T.idx <- idx;
  inst.T.activity <- T.Computing_pending;
  inst.T.fl.T.total_work <- 1e6;
  inst.T.fl.T.period <- 3600.0;
  inst.T.fl.T.ckpt_nominal <- spec.Jobgen.ckpt_gb /. bandwidth_gbs;
  inst.T.fl.T.last_commit_end <- last_commit_end;
  inst

let next_id = ref 0

let mk_request ?(kind = T.Req_ckpt) ?(volume = 100.0) ?(at = 0.0) inst =
  let key = !next_id in
  incr next_id;
  T.make_request ~key ~inst ~kind ~volume ~at

let drain ~now (module A : Arbiter.S) =
  let rec go acc =
    match A.select ~now with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

let policies ~label =
  [
    (label ^ "/fifo", fun () -> Arbiter.fifo ());
    ( label ^ "/least-waste",
      fun () -> Arbiter.least_waste ~node_mtbf_s:mtbf_s ~bandwidth_gbs () );
    (label ^ "/greedy-exposure", fun () -> Arbiter.greedy_exposure ());
    ( label ^ "/least-waste-reference",
      fun () -> Lw_reference.arbiter ~node_mtbf_s:mtbf_s ~bandwidth_gbs () );
  ]

(* The unified-cancellation contract: whatever the internal representation
   (FIFO marks lazily, the indexed pool removes eagerly), a killed
   instance's stale request must never surface from [select]. *)
let test_cancelled_never_granted () =
  List.iter
    (fun (name, mk) ->
      let (module A : Arbiter.S) = mk () in
      let victim = mk_inst ~idx:1 ~nodes:512 ~last_commit_end:0.0 in
      let survivor = mk_inst ~idx:2 ~nodes:256 ~last_commit_end:0.0 in
      let reqs =
        [
          mk_request ~at:0.0 victim;
          mk_request ~at:1.0 survivor;
          mk_request ~at:2.0 ~kind:(T.Req_io Io.Input) victim;
          mk_request ~at:3.0 survivor;
          mk_request ~at:4.0 victim;
        ]
      in
      List.iter A.enqueue reqs;
      A.cancel_of_inst victim;
      Alcotest.(check int) (name ^ ": live backlog") 2 (A.pending ());
      let granted = drain ~now:5000.0 (module A) in
      Alcotest.(check int) (name ^ ": grants") 2 (List.length granted);
      List.iter
        (fun (r : T.request) ->
          Alcotest.(check bool) (name ^ ": granted request not cancelled") false r.r_cancelled;
          Alcotest.(check int) (name ^ ": granted inst") survivor.T.idx r.r_inst.T.idx)
        granted;
      Alcotest.(check int) (name ^ ": empty after drain") 0 (A.pending ());
      let s = A.stats () in
      Alcotest.(check int) (name ^ ": stats enqueued") 5 s.T.arb_enqueued;
      Alcotest.(check int) (name ^ ": stats granted") 2 s.T.arb_granted;
      Alcotest.(check int) (name ^ ": stats cancelled") 3 s.T.arb_cancelled)
    (policies ~label:"cancel")

(* A grant scores every live candidate, except a lone one: it wins under
   every policy, so it is granted without a score. Draining three
   requests scores 3 + 2 + 0 candidates; FIFO scores none. *)
let test_scored_counts () =
  List.iter
    (fun (name, mk, per_drain) ->
      let (module A : Arbiter.S) = mk () in
      let insts =
        List.init 3 (fun i -> mk_inst ~idx:(20 + i) ~nodes:(64 * (i + 1)) ~last_commit_end:0.0)
      in
      List.iteri (fun i inst -> A.enqueue (mk_request ~at:(float_of_int i) inst)) insts;
      Alcotest.(check int) (name ^ ": grants") 3 (List.length (drain ~now:100.0 (module A)));
      let s = A.stats () in
      Alcotest.(check (pair int int)) (name ^ ": granted, scored") (3, per_drain)
        (s.T.arb_granted, s.T.arb_scored))
    [
      ("fifo", (fun () -> Arbiter.fifo ()), 0);
      ( "least-waste",
        (fun () -> Arbiter.least_waste ~node_mtbf_s:mtbf_s ~bandwidth_gbs ()),
        5 );
      ("greedy-exposure", (fun () -> Arbiter.greedy_exposure ()), 5);
    ]

let test_fifo_arrival_order () =
  let (module A : Arbiter.S) = Arbiter.fifo () in
  let insts = List.init 5 (fun i -> mk_inst ~idx:(10 + i) ~nodes:8 ~last_commit_end:0.0) in
  let reqs = List.map (fun inst -> mk_request inst) insts in
  List.iter A.enqueue reqs;
  let ids (rs : T.request list) = List.map (fun r -> r.T.r_key) rs in
  Alcotest.(check (list int)) "FCFS grant order" (ids reqs) (ids (drain ~now:10.0 (module A)))

(* The indexed pool must agree with the straightforward list treatment:
   same candidates, same arrival order, same Lw_reference.select choice. *)
let test_least_waste_matches_oracle () =
  let now = 7000.0 in
  let insts =
    List.init 9 (fun i ->
        mk_inst ~idx:(20 + i) ~nodes:(64 + (i * 131 mod 700))
          ~last_commit_end:(float_of_int (i * 53 mod 400)))
  in
  let reqs =
    List.mapi
      (fun i inst ->
        if i mod 3 = 2 then
          mk_request ~kind:(T.Req_io Io.Input) ~volume:(50.0 +. float_of_int i)
            ~at:(float_of_int (i * 17)) inst
        else mk_request ~at:(float_of_int (i * 17)) inst)
      insts
  in
  let oracle pool =
    let to_candidate (r : T.request) =
      match r.T.r_kind with
      | T.Req_io _ ->
          Candidate.Io
            {
              Candidate.key = r.T.r_key;
              nodes = r.T.r_inst.T.spec.Jobgen.nodes;
              service_s = r.T.r_fl.T.r_volume /. bandwidth_gbs;
              waited_s = now -. r.T.r_fl.T.r_at;
            }
      | T.Req_ckpt ->
          Candidate.Ckpt
            {
              Candidate.key = r.T.r_key;
              nodes = r.T.r_inst.T.spec.Jobgen.nodes;
              ckpt_s = r.T.r_inst.T.fl.T.ckpt_nominal;
              exposed_s = now -. r.T.r_inst.T.fl.T.last_commit_end;
              recovery_s = r.T.r_inst.T.fl.T.ckpt_nominal;
            }
    in
    Option.map Candidate.key (Lw_reference.select ~node_mtbf_s:mtbf_s (List.map to_candidate pool))
  in
  let (module A : Arbiter.S) = Arbiter.least_waste ~node_mtbf_s:mtbf_s ~bandwidth_gbs () in
  List.iter A.enqueue reqs;
  (* Drain fully: after each grant the oracle recomputes on the remainder,
     so the whole grant sequence must match, not just the first pick. *)
  let rec go pool =
    match (oracle pool, A.select ~now) with
    | None, None -> ()
    | Some key, Some r ->
        Alcotest.(check int) "indexed pool matches list oracle" key r.T.r_key;
        go (List.filter (fun (q : T.request) -> q.T.r_key <> key) pool)
    | Some _, None -> Alcotest.fail "arbiter dried up before oracle"
    | None, Some _ -> Alcotest.fail "oracle dried up before arbiter"
  in
  go reqs

let test_greedy_exposure_ranking () =
  let (module A : Arbiter.S) = Arbiter.greedy_exposure () in
  let now = 1000.0 in
  (* exposure × nodes: 1000×100 = 1e5, 900×200 = 1.8e5, 500×256 = 1.28e5 *)
  let a = mk_inst ~idx:40 ~nodes:100 ~last_commit_end:0.0 in
  let b = mk_inst ~idx:41 ~nodes:200 ~last_commit_end:100.0 in
  let c = mk_inst ~idx:42 ~nodes:256 ~last_commit_end:500.0 in
  List.iter A.enqueue [ mk_request a; mk_request b; mk_request c ];
  let order = List.map (fun (r : T.request) -> r.T.r_inst.T.idx) (drain ~now (module A)) in
  Alcotest.(check (list int)) "largest node-seconds at risk first" [ 41; 42; 40 ] order;
  (* Blocking I/O requests compete on waiting time instead of exposure:
     1000 s waited × 100 nodes beats a 100 s-fresh ckpt × 200 nodes. *)
  let d = mk_inst ~idx:43 ~nodes:100 ~last_commit_end:now in
  let io = mk_request ~kind:(T.Req_io Io.Output) ~at:0.0 d in
  let fresh = mk_inst ~idx:46 ~nodes:200 ~last_commit_end:(now -. 100.0) in
  let ck = mk_request fresh in
  List.iter A.enqueue [ ck; io ];
  (match A.select ~now with
  | Some r -> Alcotest.(check int) "waited I/O outranks fresher ckpt" 43 r.T.r_inst.T.idx
  | None -> Alcotest.fail "nothing selected");
  (* Ties (equal scores) go to arrival order. *)
  let (module B : Arbiter.S) = Arbiter.greedy_exposure () in
  let e = mk_inst ~idx:44 ~nodes:128 ~last_commit_end:0.0 in
  let f = mk_inst ~idx:45 ~nodes:128 ~last_commit_end:0.0 in
  let r1 = mk_request e and r2 = mk_request f in
  B.enqueue r1;
  B.enqueue r2;
  match B.select ~now with
  | Some r -> Alcotest.(check int) "tie breaks to arrival order" r1.T.r_key r.T.r_key
  | None -> Alcotest.fail "nothing selected"

(* Churn heavily across compactions and growth: the indexed pool must keep
   arrival order and never resurrect a removed or cancelled request. *)
let test_pool_churn () =
  let (module A : Arbiter.S) = Arbiter.greedy_exposure () in
  let inst = mk_inst ~idx:50 ~nodes:16 ~last_commit_end:0.0 in
  let stale = mk_inst ~idx:51 ~nodes:16 ~last_commit_end:0.0 in
  for round = 1 to 50 do
    let keep = List.init 3 (fun i -> mk_request ~at:(float_of_int i) inst) in
    let dead = List.init 4 (fun i -> mk_request ~at:(float_of_int i) stale) in
    List.iter A.enqueue (keep @ dead);
    A.cancel_of_inst stale;
    let granted = drain ~now:1e4 (module A) in
    Alcotest.(check int)
      (Printf.sprintf "round %d grants" round)
      3 (List.length granted);
    List.iter
      (fun (r : T.request) ->
        Alcotest.(check int) "never a stale grant" inst.T.idx r.T.r_inst.T.idx)
      granted
  done

let () =
  Alcotest.run "arbiter"
    [
      ( "contract",
        [
          Alcotest.test_case "cancelled never granted (all policies)" `Quick
            test_cancelled_never_granted;
          Alcotest.test_case "fifo arrival order" `Quick test_fifo_arrival_order;
          Alcotest.test_case "scored counts skip a lone request" `Quick test_scored_counts;
          Alcotest.test_case "pool churn stays consistent" `Quick test_pool_churn;
        ] );
      ( "policies",
        [
          Alcotest.test_case "least-waste matches list oracle" `Quick
            test_least_waste_matches_oracle;
          Alcotest.test_case "greedy-exposure ranking" `Quick
            test_greedy_exposure_ranking;
        ] );
    ]
