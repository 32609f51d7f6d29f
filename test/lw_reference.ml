open Cocheck_sim
open Sim_types

(* The list-based Least-Waste formulation, kept as the differential-testing
   oracle for the aggregate-backed production path in {!Arbiter} — the
   same reference-implementation pattern as {!Io_reference}: the Section
   3.5 candidate records, the direct Eq. (1)/(2) sum, the O(n²) selection,
   and an arbiter whose every grant materializes the candidate list in
   arrival order. Its pool is the retired [pool @ [req]] / [List.filter]
   representation, so the oracle shares no data structure with the
   implementation under test. Test-only: the simulator never uses it. *)

module Candidate = struct
  type io = { key : int; nodes : int; service_s : float; waited_s : float }

  type ckpt = {
    key : int;
    nodes : int;
    ckpt_s : float;
    exposed_s : float;
    recovery_s : float;
  }

  type t = Io of io | Ckpt of ckpt

  let key = function Io c -> c.key | Ckpt c -> c.key
  let nodes = function Io c -> c.nodes | Ckpt c -> c.nodes
  let service_time = function Io c -> c.service_s | Ckpt c -> c.ckpt_s

  let validate t =
    let bad = invalid_arg in
    match t with
    | Io c ->
        if c.nodes <= 0 then bad "Candidate: non-positive node count";
        if c.service_s < 0.0 then bad "Candidate: negative service time";
        if c.waited_s < 0.0 then bad "Candidate: negative wait"
    | Ckpt c ->
        if c.nodes <= 0 then bad "Candidate: non-positive node count";
        if c.ckpt_s < 0.0 then bad "Candidate: negative checkpoint time";
        if c.exposed_s < 0.0 then bad "Candidate: negative exposure";
        if c.recovery_s < 0.0 then bad "Candidate: negative recovery time"
end

(* Equations (1) and (2) share one shape: W_i = v × Σ_{j ≠ i} term(j), where
   v is the service time of the selected candidate and term(j) depends on
   which pool j belongs to. *)

let debug_validate = ref false

let inflicted_waste ~node_mtbf_s ~service_s ~self candidates =
  if node_mtbf_s <= 0.0 then invalid_arg "Least_waste: MTBF must be positive";
  let v = service_s in
  let term (c : Candidate.t) =
    if Candidate.key c = self then 0.0
    else
      match c with
      | Candidate.Io io -> float_of_int io.nodes *. (io.waited_s +. v)
      | Candidate.Ckpt ck ->
          let q = float_of_int ck.nodes in
          q *. q /. node_mtbf_s *. (ck.recovery_s +. ck.exposed_s +. (v /. 2.0))
  in
  v *. Cocheck_util.Numerics.sum_by term candidates

let select ~node_mtbf_s candidates =
  if node_mtbf_s <= 0.0 then invalid_arg "Least_waste.select: MTBF must be positive";
  if !debug_validate then List.iter Candidate.validate candidates;
  let best = ref None in
  List.iter
    (fun c ->
      let w =
        inflicted_waste ~node_mtbf_s ~service_s:(Candidate.service_time c)
          ~self:(Candidate.key c) candidates
      in
      match !best with
      | Some (_, w_best) when w >= w_best -> ()
      | _ -> best := Some (c, w))
    candidates;
  Option.map fst !best

(* The boxed-entry view of {!Cocheck_core.Least_waste.Aggregate} the
   property tests speak. [mem] and [size] ask the aggregate itself (an
   unknown key makes [waste] raise), over every key ever added. *)
module Aggregate = struct
  module A = Cocheck_core.Least_waste.Aggregate

  type entry =
    | Io_entry of { nodes : int; service_s : float; enqueued_at : float }
    | Ckpt_entry of {
        nodes : int;
        ckpt_s : float;
        recovery_s : float;
        last_commit_end : float;
      }

  type t = { agg : A.t; mutable seen : int list }

  let create ~node_mtbf_s = { agg = A.create ~node_mtbf_s; seen = [] }

  let add t ~key = function
    | Io_entry { nodes; service_s; enqueued_at } ->
        A.add_io t.agg ~key ~nodes ~service_s ~enqueued_at;
        t.seen <- key :: t.seen
    | Ckpt_entry { nodes; ckpt_s; recovery_s; last_commit_end } ->
        A.add_ckpt t.agg ~key ~nodes ~ckpt_s ~recovery_s ~last_commit_end;
        t.seen <- key :: t.seen

  let remove t ~key = A.remove t.agg ~key
  let waste t ~now ~key = A.waste t.agg ~now ~key

  let mem t ~key =
    match A.waste t.agg ~now:0.0 ~key with
    | _ -> true
    | exception Invalid_argument _ -> false

  let size t = List.length (List.filter (fun key -> mem t ~key) (List.sort_uniq compare t.seen))

  let service_time = function
    | Io_entry { service_s; _ } -> service_s
    | Ckpt_entry { ckpt_s; _ } -> ckpt_s
end

let to_candidate ~bandwidth_gbs ~now (r : request) =
  match r.r_kind with
  | Req_io _ ->
      Candidate.Io
        {
          Candidate.key = r.r_key;
          nodes = r.r_inst.spec.nodes;
          service_s = r.r_fl.r_volume /. bandwidth_gbs;
          waited_s = now -. r.r_fl.r_at;
        }
  | Req_ckpt ->
      Candidate.Ckpt
        {
          Candidate.key = r.r_key;
          nodes = r.r_inst.spec.nodes;
          ckpt_s = r.r_inst.fl.ckpt_nominal;
          exposed_s = now -. r.r_inst.fl.last_commit_end;
          recovery_s = r.r_inst.fl.ckpt_nominal;
        }

let arbiter ~node_mtbf_s ~bandwidth_gbs () : arbiter =
  (module struct
    let policy = "least-waste-reference"
    let pool : request list ref = ref []
    let enq = ref 0
    let granted = ref 0
    let scored = ref 0
    let cancelled = ref 0

    let enqueue r =
      incr enq;
      pool := !pool @ [ r ]

    let cancel_of_inst inst =
      let stale, live =
        List.partition (fun (r : request) -> r.r_inst.idx = inst.idx) !pool
      in
      List.iter
        (fun (r : request) ->
          r.r_cancelled <- true;
          incr cancelled)
        stale;
      pool := live

    let select ~now =
      match !pool with
      | [] -> None
      | reqs ->
          let cands = List.map (to_candidate ~bandwidth_gbs ~now) reqs in
          scored := !scored + List.length cands;
          Option.bind (select ~node_mtbf_s cands) (fun c ->
              let key = Candidate.key c in
              let r = List.find (fun (r : request) -> r.r_key = key) reqs in
              pool := List.filter (fun (q : request) -> q.r_key <> key) reqs;
              incr granted;
              Some r)

    let pending () = List.length !pool

    let stats () =
      {
        arb_policy = policy;
        arb_pending = pending ();
        arb_enqueued = !enq;
        arb_granted = !granted;
        arb_scored = !scored;
        arb_cancelled = !cancelled;
      }
  end)
