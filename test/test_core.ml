(* Tests for cocheck.core: the Young/Daly period, the waste model, the
   Theorem 1 lower bound and the Least-Waste selection heuristic — checked
   against hand-computed oracles and brute-force equivalents. *)

open Cocheck_core
module App_class = Cocheck_model.App_class
module Apex = Cocheck_model.Apex
module Platform = Cocheck_model.Platform
module Units = Cocheck_util.Units
module Numerics = Cocheck_util.Numerics
module Candidate = Lw_reference.Candidate

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

(* ------------------------------------------------------------------ *)
(* Daly                                                                 *)
(* ------------------------------------------------------------------ *)

let test_daly_formula () =
  (* sqrt(2 * 3600 * 50) = 600. *)
  checkf "hand value" 600.0 (Daly.period ~ckpt_s:50.0 ~mtbf_s:3600.0)

let test_daly_validation () =
  Alcotest.check_raises "zero C" (Invalid_argument "Daly.period: checkpoint time must be positive")
    (fun () -> ignore (Daly.period ~ckpt_s:0.0 ~mtbf_s:1.0))

let test_daly_monotone =
  QCheck.Test.make ~name:"daly_monotone_in_C_and_mu" ~count:300
    QCheck.(quad (float_range 1.0 1e4) (float_range 1.0 1e4) (float_range 1e3 1e8) (float_range 1e3 1e8))
    (fun (c1, c2, m1, m2) ->
      let clo = Float.min c1 c2 and chi = Float.max c1 c2 in
      let mlo = Float.min m1 m2 and mhi = Float.max m1 m2 in
      Daly.period ~ckpt_s:clo ~mtbf_s:mlo <= Daly.period ~ckpt_s:chi ~mtbf_s:mlo +. 1e-9
      && Daly.period ~ckpt_s:clo ~mtbf_s:mlo <= Daly.period ~ckpt_s:clo ~mtbf_s:mhi +. 1e-9)

let test_daly_minimizes_waste =
  (* The Daly period is the argmin of Waste.job_waste: perturbing it in
     either direction must not decrease the waste. *)
  QCheck.Test.make ~name:"daly_is_waste_argmin" ~count:300
    QCheck.(pair (float_range 10.0 5000.0) (float_range 1e4 1e8))
    (fun (ckpt_s, mtbf_s) ->
      let p = Daly.period ~ckpt_s ~mtbf_s in
      let w x = Waste.job_waste ~ckpt_s ~period_s:x ~recovery_s:ckpt_s ~mtbf_s in
      w p <= w (p *. 1.1) +. 1e-12 && w p <= w (p *. 0.9) +. 1e-12)

let test_daly_period_for_eap () =
  (* EAP on Cielo at 160 GB/s: C = 52429/160 ~ 327.7 s, mu = 2y/2048. *)
  let platform = Platform.cielo () in
  let expected =
    sqrt (2.0 *. (Units.years 2.0 /. 2048.0) *. (App_class.ckpt_gb Apex.eap ~platform /. 160.0))
  in
  checkf "EAP Daly period" ~eps:1e-6 expected (Daly.period_for Apex.eap ~platform)

let test_daly_valid_regime () =
  Alcotest.(check bool) "C << mu valid" true (Daly.valid_regime ~ckpt_s:10.0 ~mtbf_s:1e6);
  Alcotest.(check bool) "C ~ mu invalid" false (Daly.valid_regime ~ckpt_s:10.0 ~mtbf_s:15.0)

(* ------------------------------------------------------------------ *)
(* Waste                                                                *)
(* ------------------------------------------------------------------ *)

let test_job_waste_hand_value () =
  (* C/P + (P/2 + R)/mu = 100/1000 + (500+200)/10000 = 0.17 *)
  checkf "hand value" 0.17
    (Waste.job_waste ~ckpt_s:100.0 ~period_s:1000.0 ~recovery_s:200.0 ~mtbf_s:10_000.0)

let test_job_waste_no_failures_limit () =
  (* mu -> infinity leaves only the checkpointing term. *)
  checkf "C/P only" ~eps:1e-6 0.1
    (Waste.job_waste ~ckpt_s:100.0 ~period_s:1000.0 ~recovery_s:200.0 ~mtbf_s:1e15)

let load ~n ~q ~c = { Waste.n; q; ckpt_s = c; recovery_s = c }

let test_platform_waste_single_class () =
  (* One class occupying the whole platform reduces to the job waste. *)
  let classes = [ load ~n:4.0 ~q:25 ~c:50.0 ] in
  let mtbf_i = 1e6 /. 25.0 in
  checkf "weighted mean with full occupancy" ~eps:1e-9
    (Waste.job_waste ~ckpt_s:50.0 ~period_s:2000.0 ~recovery_s:50.0 ~mtbf_s:mtbf_i)
    (Waste.platform_waste ~classes ~periods:[ 2000.0 ] ~total_nodes:100 ~node_mtbf_s:1e6)

let test_platform_waste_weighting () =
  (* Two classes with equal job waste but unequal node share: mean must be
     the node-weighted combination. *)
  let c1 = load ~n:1.0 ~q:80 ~c:10.0 and c2 = load ~n:1.0 ~q:20 ~c:10.0 in
  let p1 = 1000.0 and p2 = 1000.0 in
  let w1 =
    Waste.job_waste ~ckpt_s:10.0 ~period_s:p1 ~recovery_s:10.0 ~mtbf_s:(1e7 /. 80.0)
  in
  let w2 =
    Waste.job_waste ~ckpt_s:10.0 ~period_s:p2 ~recovery_s:10.0 ~mtbf_s:(1e7 /. 20.0)
  in
  checkf "weighted" ~eps:1e-9
    ((0.8 *. w1) +. (0.2 *. w2))
    (Waste.platform_waste ~classes:[ c1; c2 ] ~periods:[ p1; p2 ] ~total_nodes:100
       ~node_mtbf_s:1e7)

let test_io_fraction_example () =
  (* Section 3.2's two-job example: both want C=100 each period 400 -> F=0.5. *)
  let classes = [ load ~n:1.0 ~q:1 ~c:100.0; load ~n:1.0 ~q:1 ~c:100.0 ] in
  checkf "F" 0.5 (Waste.io_fraction ~classes ~periods:[ 400.0; 400.0 ])

let test_waste_arity_mismatch () =
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Waste.io_fraction: classes/periods arity mismatch") (fun () ->
      ignore (Waste.io_fraction ~classes:[ load ~n:1.0 ~q:1 ~c:1.0 ] ~periods:[]))

let test_steady_state_counts () =
  let platform = Platform.cielo () in
  let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform in
  let n_eap = fst (List.hd counts) in
  checkf "EAP n_i = 0.66*17888/2048" ~eps:1e-6 (0.66 *. 17888.0 /. 2048.0) n_eap;
  (* Total nodes covered = sum n_i q_i = N (shares sum to 100%). *)
  let covered =
    List.fold_left (fun acc (n, c) -> acc +. (n *. float_of_int c.App_class.nodes)) 0.0 counts
  in
  checkf "full platform covered" ~eps:1e-6 17888.0 covered

(* ------------------------------------------------------------------ *)
(* Lower bound                                                          *)
(* ------------------------------------------------------------------ *)

let test_lower_bound_unconstrained_is_daly () =
  (* Plenty of I/O headroom: lambda = 0 and periods equal Daly's. *)
  let input =
    {
      Lower_bound.classes = [ load ~n:2.0 ~q:100 ~c:10.0 ];
      total_nodes = 10_000;
      node_mtbf_s = Units.years 10.0;
    }
  in
  let r = Lower_bound.solve input in
  checkf "lambda 0" 0.0 r.Lower_bound.lambda;
  let daly = Daly.period ~ckpt_s:10.0 ~mtbf_s:(Units.years 10.0 /. 100.0) in
  checkf "period = Daly" ~eps:1e-6 daly (List.hd r.periods);
  Alcotest.(check bool) "F < 1" true (r.io_fraction < 1.0)

let test_lower_bound_constrained_saturates () =
  (* Scarce bandwidth: lambda > 0 and F = 1 exactly. *)
  let input =
    {
      Lower_bound.classes =
        [ load ~n:5.0 ~q:1000 ~c:3000.0; load ~n:3.0 ~q:500 ~c:2000.0 ];
      total_nodes = 6_500;
      node_mtbf_s = Units.years 1.0;
    }
  in
  let r = Lower_bound.solve input in
  Alcotest.(check bool) "lambda > 0" true (r.Lower_bound.lambda > 0.0);
  checkf "F saturates at 1" ~eps:1e-6 1.0 r.io_fraction;
  List.iter2
    (fun p pd ->
      Alcotest.(check bool) "constrained period >= Daly" true (p >= pd -. 1e-9))
    r.periods r.daly_periods

let test_lower_bound_periods_formula =
  QCheck.Test.make ~name:"eq8_reduces_to_daly_at_lambda0" ~count:200
    QCheck.(triple (float_range 1.0 1e4) (int_range 1 10_000) (float_range 1e5 1e10))
    (fun (c, q, mu) ->
      let cl = load ~n:1.0 ~q ~c in
      let p =
        Lower_bound.period_at ~lambda:0.0 ~total_nodes:100_000 ~node_mtbf_s:mu cl
      in
      Numerics.fequal ~eps:1e-9 p (Daly.period ~ckpt_s:c ~mtbf_s:(mu /. float_of_int q)))

let test_lower_bound_waste_monotone_bandwidth () =
  (* More bandwidth (smaller C) can only lower the bound. *)
  let platform b = Platform.cielo ~bandwidth_gbs:b () in
  let waste b =
    let p = platform b in
    let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform:p in
    (Lower_bound.solve_model ~classes:counts ~platform:p ()).Lower_bound.waste
  in
  let prev = ref (waste 40.0) in
  List.iter
    (fun b ->
      let w = waste b in
      Alcotest.(check bool) (Printf.sprintf "waste(%g) <= waste(prev)" b) true (w <= !prev +. 1e-9);
      prev := w)
    [ 60.0; 80.0; 120.0; 160.0; 320.0 ]

let test_lower_bound_waste_monotone_mtbf () =
  let waste years =
    let p = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:years () in
    let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform:p in
    (Lower_bound.solve_model ~classes:counts ~platform:p ()).Lower_bound.waste
  in
  let prev = ref (waste 2.0) in
  List.iter
    (fun y ->
      let w = waste y in
      Alcotest.(check bool) (Printf.sprintf "waste(%gy) decreases" y) true (w <= !prev +. 1e-9);
      prev := w)
    [ 5.0; 10.0; 25.0; 50.0 ]

let test_lower_bound_cielo_40_flagship () =
  (* Regression: the paper's flagship configuration. The bound computed at
     Cielo/40GB/s/2y has lambda > 0 (constrained) and sits near 0.50. *)
  let p = Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:2.0 () in
  let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform:p in
  let r = Lower_bound.solve_model ~classes:counts ~platform:p () in
  Alcotest.(check bool) "constrained" true (r.Lower_bound.lambda > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "bound %.3f in [0.45, 0.56]" r.waste)
    true
    (r.waste > 0.45 && r.waste < 0.56)

(* The first-order model has a domain. Cielo at 160 GB/s sits inside it;
   at 40 GB/s the constrained Silverton period (about 16 ks) passes its
   4096-node job MTBF (about 15.4 ks); the prospective machine at 40 GB/s
   sums to a waste past 1; and a class whose checkpoint costs its whole
   job MTBF gets a Daly period beyond that MTBF while the platform waste
   stays below 1. *)
let test_lower_bound_domain () =
  let domain_name = function
    | Lower_bound.In_model -> "in model"
    | Waste_reaches_one -> "waste reaches 1"
    | Period_reaches_mtbf { class_index; _ } -> Printf.sprintf "period of %d" class_index
  in
  let check what expected r =
    Alcotest.(check string) what expected (domain_name r.Lower_bound.domain)
  in
  let at p =
    let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform:p in
    Lower_bound.solve_model ~classes:counts ~platform:p ()
  in
  check "Cielo at 160 GB/s" "in model" (at (Platform.cielo ~bandwidth_gbs:160.0 ()));
  check "Cielo at 40 GB/s" "period of 2" (at (Platform.cielo ~bandwidth_gbs:40.0 ()));
  let r = at (Platform.prospective ~bandwidth_gbs:40.0 ()) in
  check "prospective at 40 GB/s" "waste reaches 1" r;
  Alcotest.(check bool) "its waste is past 1" true (r.waste >= 1.0);
  let mtbf_s = Units.years 1.0 in
  let r =
    Lower_bound.solve
      {
        Lower_bound.classes =
          [ load ~n:1.0 ~q:10 ~c:1.0; load ~n:1.0 ~q:100 ~c:(mtbf_s /. 100.0) ];
        total_nodes = 10_000;
        node_mtbf_s = mtbf_s;
      }
  in
  check "checkpoint as long as the MTBF" "period of 1" r;
  Alcotest.(check bool) "waste still below 1" true (r.waste < 1.0)

let test_lower_bound_optimal_among_feasible =
  (* The KKT periods minimise the platform waste among random feasible
     period vectors (F <= 1). *)
  QCheck.Test.make ~name:"kkt_beats_random_feasible_periods" ~count:150
    QCheck.(pair small_int (list_of_size (QCheck.Gen.return 2) (float_range 0.5 4.0)))
    (fun (_, scales) ->
      let classes = [ load ~n:4.0 ~q:800 ~c:300.0; load ~n:2.0 ~q:400 ~c:200.0 ] in
      let input =
        { Lower_bound.classes; total_nodes = 4_000; node_mtbf_s = Units.years 1.0 }
      in
      let r = Lower_bound.solve input in
      let candidate = List.map2 (fun p s -> p *. s) r.Lower_bound.periods scales in
      let feasible = Waste.io_fraction ~classes ~periods:candidate <= 1.0 in
      (not feasible)
      || Waste.platform_waste ~classes ~periods:candidate ~total_nodes:4_000
           ~node_mtbf_s:(Units.years 1.0)
         >= r.waste -. 1e-9)

let test_regular_io_demand () =
  let platform = Platform.cielo () in
  let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform in
  let demand = Lower_bound.steady_state_regular_io_gbs ~classes:counts ~platform in
  (* Hand-estimate: each class contributes n*(in+out)/walltime; expect a
     small single-digit GB/s total. *)
  Alcotest.(check bool) (Printf.sprintf "demand %.2f GB/s sane" demand) true
    (demand > 0.5 && demand < 20.0)

let test_solve_model_rejects_saturated () =
  let p = Platform.cielo ~bandwidth_gbs:0.001 () in
  let counts = Waste.steady_state_counts ~classes:Apex.lanl_workload ~platform:p in
  Alcotest.(check bool) "saturated bandwidth rejected" true
    (match Lower_bound.solve_model ~classes:counts ~platform:p () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Candidate / Least_waste                                              *)
(* ------------------------------------------------------------------ *)

let io ~key ~nodes ~v ~d = Candidate.Io { key; nodes; service_s = v; waited_s = d }

let ck ~key ~nodes ~c ~d ~r =
  Candidate.Ckpt { key; nodes; ckpt_s = c; exposed_s = d; recovery_s = r }

let test_eq1_hand_value () =
  (* Serving candidate 0 (v=100s) next to one IO candidate (q=10, d=50)
     and one ckpt candidate (q=20, R=30, d=200), mu_ind=1e6:
     W = 100 * (10*(50+100) + 20^2/1e6*(30+200+50)) = 100*(1500+0.112) *)
  let cands =
    [ io ~key:0 ~nodes:5 ~v:100.0 ~d:0.0; io ~key:1 ~nodes:10 ~v:80.0 ~d:50.0;
      ck ~key:2 ~nodes:20 ~c:60.0 ~d:200.0 ~r:30.0 ]
  in
  let w = Lw_reference.inflicted_waste ~node_mtbf_s:1e6 ~service_s:100.0 ~self:0 cands in
  checkf "hand value" ~eps:1e-6 (100.0 *. ((10.0 *. 150.0) +. (400.0 /. 1e6 *. 280.0))) w

let test_eq2_excludes_self () =
  (* A lone checkpoint candidate inflicts zero waste on others. *)
  let cands = [ ck ~key:0 ~nodes:100 ~c:60.0 ~d:500.0 ~r:60.0 ] in
  checkf "no others, no waste" 0.0
    (Lw_reference.inflicted_waste ~node_mtbf_s:1e6 ~service_s:60.0 ~self:0 cands)

let test_select_empty () =
  Alcotest.(check bool) "empty -> None" true
    (Lw_reference.select ~node_mtbf_s:1e6 [] = None)

let test_select_single () =
  let c = io ~key:7 ~nodes:2 ~v:10.0 ~d:0.0 in
  match Lw_reference.select ~node_mtbf_s:1e6 [ c ] with
  | Some chosen -> Alcotest.(check int) "sole candidate wins" 7 (Candidate.key chosen)
  | None -> Alcotest.fail "expected a winner"

let test_select_prefers_short_service () =
  (* Two identical IO candidates except service time: the shorter one
     inflicts less waste on the other. *)
  let cands = [ io ~key:0 ~nodes:10 ~v:1000.0 ~d:0.0; io ~key:1 ~nodes:10 ~v:10.0 ~d:0.0 ] in
  match Lw_reference.select ~node_mtbf_s:1e6 cands with
  | Some chosen -> Alcotest.(check int) "short job first" 1 (Candidate.key chosen)
  | None -> Alcotest.fail "expected a winner"

let test_select_matches_bruteforce =
  (* The fast selection must agree with an explicit argmin over the same
     waste function. *)
  let cand_gen =
    QCheck.Gen.(
      let* key = int_range 0 1000 in
      let* nodes = int_range 1 5000 in
      let* a = float_range 1.0 5000.0 in
      let* b = float_range 0.0 20_000.0 in
      let* is_io = bool in
      if is_io then return (io ~key ~nodes ~v:a ~d:b)
      else
        let* r = float_range 1.0 2000.0 in
        return (ck ~key ~nodes ~c:a ~d:b ~r))
  in
  QCheck.Test.make ~name:"select_is_argmin" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) cand_gen))
    (fun cands ->
      (* Distinct keys required for self-exclusion to be meaningful. *)
      let cands = List.mapi (fun i c ->
          match c with
          | Candidate.Io x -> Candidate.Io { x with key = i }
          | Candidate.Ckpt x -> Candidate.Ckpt { x with key = i }) cands in
      let mu = Units.years 2.0 in
      match Lw_reference.select ~node_mtbf_s:mu cands with
      | None -> false
      | Some chosen ->
          let w c =
            Lw_reference.inflicted_waste ~node_mtbf_s:mu
              ~service_s:(Candidate.service_time c) ~self:(Candidate.key c) cands
          in
          let min_w =
            List.fold_left (fun acc c -> Float.min acc (w c)) infinity cands
          in
          Numerics.fequal ~eps:1e-9 (w chosen) min_w)

let test_select_tie_breaks_fcfs () =
  let cands = [ io ~key:0 ~nodes:10 ~v:100.0 ~d:5.0; io ~key:1 ~nodes:10 ~v:100.0 ~d:5.0 ] in
  match Lw_reference.select ~node_mtbf_s:1e6 cands with
  | Some chosen -> Alcotest.(check int) "first of equals" 0 (Candidate.key chosen)
  | None -> Alcotest.fail "expected a winner"

let test_candidate_validation () =
  let bad = [ io ~key:0 ~nodes:1 ~v:1.0 ~d:(-1.0) ] in
  (* Release path: validation is skipped (grants are hot), garbage in
     garbage out. *)
  Alcotest.(check bool) "release path skips validation" true
    (match Lw_reference.select ~node_mtbf_s:1e6 bad with
    | Some _ -> true
    | None | (exception Invalid_argument _) -> false);
  Lw_reference.debug_validate := true;
  Fun.protect
    ~finally:(fun () -> Lw_reference.debug_validate := false)
    (fun () ->
      Alcotest.(check bool) "negative wait rejected under debug_validate" true
        (match Lw_reference.select ~node_mtbf_s:1e6 bad with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Least_waste.Aggregate                                                *)
(* ------------------------------------------------------------------ *)

(* The closed-form W_i = v·(A·now + B + S1·v − term_i) must match the
   direct Σ_{j≠i} evaluation of {!Lw_reference.inflicted_waste} for every
   member, within float tolerance — including on pools mutated by long
   interleaved add/remove histories, where the running sums accumulate
   drift the direct sum never sees. Candidates are materialized from the
   same absolute clocks the aggregate stores (waited = now − at,
   exposed = now − lce), exactly as the arbiter's oracle does. *)
let test_aggregate_matches_oracle =
  let module Agg = Lw_reference.Aggregate in
  let op_gen =
    QCheck.Gen.(
      let entry =
        let* nodes = int_range 1 5000 in
        let* is_io = bool in
        if is_io then
          let* service_s = float_range 1.0 5000.0 in
          let* enqueued_at = float_range 0.0 1e6 in
          return (Agg.Io_entry { nodes; service_s; enqueued_at })
        else
          let* ckpt_s = float_range 1.0 2000.0 in
          let* recovery_s = float_range 1.0 2000.0 in
          let* last_commit_end = float_range 0.0 1e6 in
          return (Agg.Ckpt_entry { nodes; ckpt_s; recovery_s; last_commit_end })
      in
      list_size (int_range 1 200)
        (oneof [ map (fun e -> `Add e) entry; return `Remove_oldest ]))
  in
  QCheck.Test.make ~name:"aggregate_waste_matches_direct_sum" ~count:300
    (QCheck.make op_gen)
    (fun ops ->
      let mu = Units.years 2.0 in
      let agg = Agg.create ~node_mtbf_s:mu in
      let live = ref [] (* (key, entry), newest first *)
      and next = ref 0 in
      List.iter
        (function
          | `Add e ->
              Agg.add agg ~key:!next e;
              live := (!next, e) :: !live;
              incr next
          | `Remove_oldest -> (
              match List.rev !live with
              | [] -> ()
              | (k, _) :: _ ->
                  Agg.remove agg ~key:k;
                  live := List.filter (fun (k', _) -> k' <> k) !live))
        ops;
      let now = 1e6 +. 12_345.678 in
      let to_candidate (key, e) =
        match e with
        | Agg.Io_entry { nodes; service_s; enqueued_at } ->
            Candidate.Io
              { Candidate.key; nodes; service_s; waited_s = now -. enqueued_at }
        | Agg.Ckpt_entry { nodes; ckpt_s; recovery_s; last_commit_end } ->
            Candidate.Ckpt
              {
                Candidate.key;
                nodes;
                ckpt_s;
                exposed_s = now -. last_commit_end;
                recovery_s;
              }
      in
      let cands = List.map to_candidate (List.rev !live) in
      Agg.size agg = List.length !live
      && List.for_all
           (fun (key, e) ->
             let v = Agg.service_time e in
             let direct =
               Lw_reference.inflicted_waste ~node_mtbf_s:mu ~service_s:v ~self:key
                 cands
             in
             let incr_w = Agg.waste agg ~now ~key in
             (* A·now + B cancels catastrophically when waits are short
                next to the clock, so the tolerance is scaled by the
                intermediate magnitude v·A·now as well as the true value. *)
             let da = function
               | Agg.Io_entry { nodes; _ } -> float_of_int nodes
               | Agg.Ckpt_entry { nodes; _ } ->
                   let q = float_of_int nodes in
                   q *. q /. mu
             in
             let a_sum =
               List.fold_left (fun acc (_, e') -> acc +. da e') 0.0 !live
             in
             let scale = v *. a_sum *. now in
             Float.abs (incr_w -. direct)
             <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs direct) scale))
           !live)

let test_aggregate_duplicate_key () =
  let module Agg = Lw_reference.Aggregate in
  let agg = Agg.create ~node_mtbf_s:1e6 in
  let e = Agg.Io_entry { nodes = 4; service_s = 10.0; enqueued_at = 0.0 } in
  Agg.add agg ~key:7 e;
  Alcotest.(check bool) "mem" true (Agg.mem agg ~key:7);
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Least_waste.Aggregate: duplicate key") (fun () ->
      Agg.add agg ~key:7 e);
  Agg.remove agg ~key:7;
  Agg.remove agg ~key:7;
  (* idempotent *)
  Alcotest.(check int) "empty" 0 (Agg.size agg)

(* ------------------------------------------------------------------ *)
(* Strategy                                                             *)
(* ------------------------------------------------------------------ *)

let test_paper_seven () =
  Alcotest.(check int) "seven strategies" 7 (List.length Strategy.paper_seven);
  let names = List.map Strategy.name Strategy.paper_seven in
  Alcotest.(check (list string)) "paper legend order"
    [
      "Oblivious-Fixed"; "Oblivious-Daly"; "Ordered-Fixed"; "Ordered-Daly";
      "Ordered-NB-Fixed"; "Ordered-NB-Daly"; "Least-Waste";
    ]
    names

let test_strategy_roundtrip () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.name s) with
      | Ok s' -> Alcotest.(check bool) (Strategy.name s ^ " roundtrips") true (s = s')
      | Error e -> Alcotest.fail e)
    (Strategy.Baseline :: Strategy.Greedy_exposure :: Strategy.paper_seven)

(* Every constructible strategy — including Fixed periods with whole
   second/minute/hour values, which [name] renders with unit suffixes —
   must survive name → of_string. Whole values keep %g exact, so the
   property is equality, not approximation. *)
let strategy_gen =
  QCheck.Gen.(
    let rule =
      oneof
        [
          return Strategy.Daly;
          return Strategy.Optimal;
          return (Strategy.Fixed Strategy.default_fixed_period_s);
          map (fun h -> Strategy.Fixed (float_of_int h *. 3600.0)) (int_range 1 48);
          map (fun m -> Strategy.Fixed (float_of_int m *. 60.0)) (int_range 1 299);
          map (fun s -> Strategy.Fixed (float_of_int s)) (int_range 1 3599);
        ]
    in
    oneof
      [
        map (fun r -> Strategy.Oblivious r) rule;
        map (fun r -> Strategy.Ordered r) rule;
        map (fun r -> Strategy.Ordered_nb r) rule;
        return Strategy.Least_waste;
        return Strategy.Greedy_exposure;
        return Strategy.Baseline;
      ])

let test_strategy_roundtrip_prop =
  QCheck.Test.make ~name:"of_string (name s) = Ok s" ~count:500
    (QCheck.make ~print:Strategy.name strategy_gen)
    (fun s -> Strategy.of_string (Strategy.name s) = Ok s)

let test_optimal_rule_roundtrip () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.name s) with
      | Ok s' -> Alcotest.(check bool) (Strategy.name s ^ " roundtrips") true (s = s')
      | Error e -> Alcotest.fail e)
    [ Strategy.Ordered_nb Strategy.Optimal; Strategy.Ordered Strategy.Optimal;
      Strategy.Oblivious Strategy.Optimal ];
  Alcotest.(check bool) "opt alias" true
    (Strategy.of_string "ordered-nb-opt" = Ok (Strategy.Ordered_nb Strategy.Optimal))

let test_strategy_parse_variants () =
  Alcotest.(check bool) "lw alias" true (Strategy.of_string "lw" = Ok Strategy.Least_waste);
  Alcotest.(check bool) "ge alias" true
    (Strategy.of_string "ge" = Ok Strategy.Greedy_exposure);
  Alcotest.(check bool) "greedy_exposure underscore" true
    (Strategy.of_string "greedy_exposure" = Ok Strategy.Greedy_exposure);
  Alcotest.(check bool) "case-insensitive" true
    (Strategy.of_string "ORDERED-NB-DALY" = Ok (Strategy.Ordered_nb Strategy.Daly));
  Alcotest.(check bool) "custom fixed period" true
    (Strategy.of_string "oblivious-fixed(2h)" = Ok (Strategy.Oblivious (Strategy.Fixed 7200.0)));
  Alcotest.(check bool) "garbage rejected" true
    (match Strategy.of_string "bogus" with Error _ -> true | Ok _ -> false)

let test_strategy_flags () =
  Alcotest.(check bool) "oblivious blocking" true (Strategy.is_blocking (Strategy.Oblivious Strategy.Daly));
  Alcotest.(check bool) "ordered-nb non-blocking" false (Strategy.is_blocking (Strategy.Ordered_nb Strategy.Daly));
  Alcotest.(check bool) "least-waste non-blocking" false (Strategy.is_blocking Strategy.Least_waste);
  Alcotest.(check bool) "oblivious no token" false (Strategy.uses_token (Strategy.Oblivious Strategy.Daly));
  Alcotest.(check bool) "ordered token" true (Strategy.uses_token (Strategy.Ordered Strategy.Daly));
  Alcotest.(check bool) "lw token" true (Strategy.uses_token Strategy.Least_waste);
  Alcotest.(check bool) "greedy-exposure non-blocking" false
    (Strategy.is_blocking Strategy.Greedy_exposure);
  Alcotest.(check bool) "greedy-exposure token" true
    (Strategy.uses_token Strategy.Greedy_exposure)

let test_fixed_name_with_period () =
  Alcotest.(check string) "non-default period spelled out" "Ordered-Fixed(30m)"
    (Strategy.name (Strategy.Ordered (Strategy.Fixed 1800.0)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.core"
    [
      ( "daly",
        [
          Alcotest.test_case "formula" `Quick test_daly_formula;
          Alcotest.test_case "validation" `Quick test_daly_validation;
          Alcotest.test_case "EAP on Cielo" `Quick test_daly_period_for_eap;
          Alcotest.test_case "valid regime" `Quick test_daly_valid_regime;
        ]
        @ qsuite [ test_daly_monotone; test_daly_minimizes_waste ] );
      ( "waste",
        [
          Alcotest.test_case "job waste hand value" `Quick test_job_waste_hand_value;
          Alcotest.test_case "no-failure limit" `Quick test_job_waste_no_failures_limit;
          Alcotest.test_case "single class platform" `Quick test_platform_waste_single_class;
          Alcotest.test_case "node weighting" `Quick test_platform_waste_weighting;
          Alcotest.test_case "io fraction example" `Quick test_io_fraction_example;
          Alcotest.test_case "arity checked" `Quick test_waste_arity_mismatch;
          Alcotest.test_case "steady-state counts" `Quick test_steady_state_counts;
        ] );
      ( "lower_bound",
        [
          Alcotest.test_case "unconstrained = Daly" `Quick test_lower_bound_unconstrained_is_daly;
          Alcotest.test_case "constrained saturates F" `Quick test_lower_bound_constrained_saturates;
          Alcotest.test_case "monotone in bandwidth" `Quick test_lower_bound_waste_monotone_bandwidth;
          Alcotest.test_case "monotone in MTBF" `Quick test_lower_bound_waste_monotone_mtbf;
          Alcotest.test_case "flagship regression" `Quick test_lower_bound_cielo_40_flagship;
          Alcotest.test_case "regular I/O demand" `Quick test_regular_io_demand;
          Alcotest.test_case "saturated rejected" `Quick test_solve_model_rejects_saturated;
          Alcotest.test_case "model domain" `Quick test_lower_bound_domain;
        ]
        @ qsuite [ test_lower_bound_periods_formula; test_lower_bound_optimal_among_feasible ]
      );
      ( "least_waste",
        [
          Alcotest.test_case "Eq 1 hand value" `Quick test_eq1_hand_value;
          Alcotest.test_case "Eq 2 self-exclusion" `Quick test_eq2_excludes_self;
          Alcotest.test_case "empty pool" `Quick test_select_empty;
          Alcotest.test_case "single candidate" `Quick test_select_single;
          Alcotest.test_case "prefers short service" `Quick test_select_prefers_short_service;
          Alcotest.test_case "FCFS tie-break" `Quick test_select_tie_breaks_fcfs;
          Alcotest.test_case "candidate validation" `Quick test_candidate_validation;
          Alcotest.test_case "aggregate key discipline" `Quick
            test_aggregate_duplicate_key;
        ]
        @ qsuite [ test_select_matches_bruteforce; test_aggregate_matches_oracle ] );
      ( "strategy",
        [
          Alcotest.test_case "paper seven" `Quick test_paper_seven;
          Alcotest.test_case "name roundtrip" `Quick test_strategy_roundtrip;
          Alcotest.test_case "optimal rule roundtrip" `Quick test_optimal_rule_roundtrip;
          Alcotest.test_case "parse variants" `Quick test_strategy_parse_variants;
          Alcotest.test_case "blocking/token flags" `Quick test_strategy_flags;
          Alcotest.test_case "fixed period naming" `Quick test_fixed_name_with_period;
        ]
        @ qsuite [ test_strategy_roundtrip_prop ] );
    ]
