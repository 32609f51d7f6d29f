open Cocheck_sim
open Sim_types
module Candidate = Cocheck_core.Candidate
module Least_waste = Cocheck_core.Least_waste

(* The list-based Least-Waste arbiter, kept as the differential-testing
   oracle for the aggregate-backed production path in {!Arbiter} — the
   same reference-implementation pattern as {!Io_reference}. Every grant
   materializes the candidate list in arrival order and calls the
   O(pending²) {!Cocheck_core.Least_waste.select}; the pool itself is the
   retired [pool @ [req]] / [List.filter] representation, so the oracle
   shares no data structure with the implementation under test. Linked
   into tests and benches only — the simulator never constructs it. *)

let to_candidate ~bandwidth_gbs ~now (r : request) =
  match r.r_kind with
  | Req_io _ ->
      Candidate.Io
        {
          Candidate.key = r.r_key;
          nodes = r.r_inst.spec.nodes;
          service_s = r.r_volume /. bandwidth_gbs;
          waited_s = now -. r.r_at;
        }
  | Req_ckpt ->
      Candidate.Ckpt
        {
          Candidate.key = r.r_key;
          nodes = r.r_inst.spec.nodes;
          ckpt_s = r.r_inst.ckpt_nominal;
          exposed_s = now -. r.r_inst.last_commit_end;
          recovery_s = r.r_inst.ckpt_nominal;
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
          Option.bind (Least_waste.select ~node_mtbf_s cands) (fun c ->
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
