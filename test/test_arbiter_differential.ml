(* Differential test: the aggregate-backed Least-Waste arbiter
   (Arbiter.least_waste, O(pending) per grant) against the list-based
   oracle (Lw_reference, O(pending²) per grant) on randomized schedules of
   enqueues, instance-wide cancellations and grants. Both sides replay the
   identical schedule on their own copies of every request record; after
   every operation the live backlogs must agree, and every grant must pick
   the same request. The two paths sum Equations (1)–(2) in different
   orders, so on a floating-point near-tie the selections may legitimately
   differ — the harness then demands the two picks' list-oracle wastes
   agree within 1e-9 relative and stops that schedule (the pools have
   diverged). *)

module T = Cocheck_sim.Sim_types
module Arbiter = Cocheck_sim.Arbiter
module Node_pool = Cocheck_sim.Node_pool
module Io = Cocheck_sim.Io_subsystem
module Jobgen = Cocheck_model.Jobgen
module Candidate = Lw_reference.Candidate
module Rng = Cocheck_util.Rng

(* The arbiters never touch an instance's transfer; the record still
   names a subsystem. *)
let placeholder_io =
  Io.create ~engine:(Cocheck_des.Engine.create ())
    ~metrics:(Cocheck_sim.Metrics.create ~seg_start:0.0 ~seg_end:1.0)
    ~bandwidth_gbs:1.0 ~sharing:`Linear

let mk_inst ~pool ~idx ~nodes ~last_commit_end ~ckpt_gb ~bandwidth_gbs =
  let spec =
    {
      Jobgen.id = idx;
      class_index = 0;
      class_name = "diff";
      nodes;
      work_s = 1e6;
      input_gb = 0.0;
      output_gb = 0.0;
      ckpt_gb;
      steady_io_gb = 0.0;
    }
  in
  let inst =
    T.blank_inst ~spec ~nsnap:0
      ~nodes:(Option.get (Node_pool.alloc pool ~job:idx ~count:nodes))
      ~io:placeholder_io
  in
  inst.T.idx <- idx;
  inst.T.activity <- T.Computing_pending;
  inst.T.fl.T.total_work <- 1e6;
  inst.T.fl.T.period <- 3600.0;
  inst.T.fl.T.ckpt_nominal <- spec.Jobgen.ckpt_gb /. bandwidth_gbs;
  inst.T.fl.T.last_commit_end <- last_commit_end;
  inst

(* ------------------------------------------------------------------ *)
(* Randomized schedules                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Enqueue of { inst_ix : int; is_io : bool; volume : float; at : float }
  | Cancel of { inst_ix : int; at : float }
  | Select of { at : float }

type schedule = {
  node_mtbf_s : float;
  bandwidth_gbs : float;
  insts : (int * float) array;  (* nodes, last_commit_end *)
  ops : op list;  (* times strictly increasing *)
}

let gen_schedule ~seed =
  let rng = Rng.create ~seed in
  let u lo hi = lo +. (Rng.unit_float rng *. (hi -. lo)) in
  let node_mtbf_s =
    [| 0.25; 2.0; 10.0 |].(Rng.int rng 3) *. 365.0 *. 86400.0
  in
  let bandwidth_gbs = u 10.0 200.0 in
  let ninsts = 2 + Rng.int rng 7 in
  let insts =
    Array.init ninsts (fun _ -> (1 + Rng.int rng 4096, u 0.0 5000.0))
  in
  (* A handful of long schedules exercise aggregate drift across many
     add/remove cycles that never fully drain the pool. *)
  let nops = if seed mod 25 = 0 then 400 else 30 + Rng.int rng 90 in
  let t = ref 6000.0 in
  let ops =
    List.init nops (fun _ ->
        t := !t +. u 0.001 500.0;
        let p = Rng.unit_float rng in
        if p < 0.5 then
          Enqueue
            {
              inst_ix = Rng.int rng ninsts;
              is_io = Rng.unit_float rng < 0.4;
              volume = u 1.0 500.0;
              at = !t;
            }
        else if p < 0.62 then Cancel { inst_ix = Rng.int rng ninsts; at = !t }
        else Select { at = !t })
  in
  { node_mtbf_s; bandwidth_gbs; insts; ops }

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

(* Each side owns its copy of every request record (r_cancelled is mutable
   and pools retain the records), built from the same id and fields. *)
let run_schedule ~ctx (s : schedule) =
  let pool = Node_pool.create ~nodes:(Array.length s.insts * 4096) in
  let insts =
    Array.mapi
      (fun i (nodes, lce) ->
        mk_inst ~pool ~idx:i ~nodes ~last_commit_end:lce
          ~ckpt_gb:(100.0 +. float_of_int (i * 37))
          ~bandwidth_gbs:s.bandwidth_gbs)
      s.insts
  in
  let (module Fast : Arbiter.S) =
    Arbiter.least_waste ~node_mtbf_s:s.node_mtbf_s ~bandwidth_gbs:s.bandwidth_gbs ()
  in
  let (module Oracle : Arbiter.S) =
    Lw_reference.arbiter ~node_mtbf_s:s.node_mtbf_s ~bandwidth_gbs:s.bandwidth_gbs ()
  in
  (* The oracle-side copies still pending, for near-tie adjudication. *)
  let live : T.request list ref = ref [] in
  let next_id = ref 0 in
  let mk_pair ~inst ~is_io ~volume ~at =
    let key = !next_id in
    incr next_id;
    let mk () =
      T.make_request ~key ~inst
        ~kind:(if is_io then T.Req_io Io.Input else T.Req_ckpt)
        ~volume ~at
    in
    (mk (), mk ())
  in
  let check_pending what =
    if Fast.pending () <> Oracle.pending () then
      Alcotest.failf "%s: %s: pending %d vs oracle %d" ctx what (Fast.pending ())
        (Oracle.pending ())
  in
  let waste_of ~now key =
    let cands =
      List.map (Lw_reference.to_candidate ~bandwidth_gbs:s.bandwidth_gbs ~now) !live
    in
    match List.find_opt (fun c -> Candidate.key c = key) cands with
    | None -> Alcotest.failf "%s: selected key %d not in model pool" ctx key
    | Some c ->
        Lw_reference.inflicted_waste ~node_mtbf_s:s.node_mtbf_s
          ~service_s:(Candidate.service_time c) ~self:key cands
  in
  let rec replay = function
    | [] -> ()
    | Enqueue { inst_ix; is_io; volume; at } :: rest ->
        let fast_r, oracle_r = mk_pair ~inst:insts.(inst_ix) ~is_io ~volume ~at in
        Fast.enqueue fast_r;
        Oracle.enqueue oracle_r;
        live := !live @ [ oracle_r ];
        check_pending "after enqueue";
        replay rest
    | Cancel { inst_ix; at = _ } :: rest ->
        Fast.cancel_of_inst insts.(inst_ix);
        Oracle.cancel_of_inst insts.(inst_ix);
        live := List.filter (fun (r : T.request) -> r.r_inst.T.idx <> inst_ix) !live;
        check_pending "after cancel";
        replay rest
    | Select { at } :: rest -> (
        match (Fast.select ~now:at, Oracle.select ~now:at) with
        | None, None -> replay rest
        | Some f, Some o when f.T.r_key = o.T.r_key ->
            live := List.filter (fun (r : T.request) -> r.T.r_key <> o.T.r_key) !live;
            check_pending "after select";
            replay rest
        | Some f, Some o ->
            (* Different picks are only acceptable on a genuine float
               near-tie of the list-oracle wastes; the pools have then
               diverged, so the schedule ends here. *)
            let wf = waste_of ~now:at f.T.r_key and wo = waste_of ~now:at o.T.r_key in
            if not (Cocheck_util.Numerics.fequal ~eps:1e-9 wf wo) then
              Alcotest.failf
                "%s: at %.6g fast picked %d (waste %.17g), oracle %d (waste %.17g)"
                ctx at f.T.r_key wf o.T.r_key wo
        | Some f, None ->
            Alcotest.failf "%s: fast granted %d, oracle dry" ctx f.T.r_key
        | None, Some o ->
            Alcotest.failf "%s: oracle granted %d, fast dry" ctx o.T.r_key)
  in
  replay s.ops;
  (* Drain both dry: the tail of the backlog must agree too. *)
  let rec drain now =
    match (Fast.select ~now, Oracle.select ~now) with
    | None, None -> check_pending "after drain"
    | Some f, Some o when f.T.r_key = o.T.r_key ->
        live := List.filter (fun (r : T.request) -> r.T.r_key <> o.T.r_key) !live;
        drain (now +. 1.0)
    | Some f, Some o ->
        let wf = waste_of ~now f.T.r_key and wo = waste_of ~now o.T.r_key in
        if not (Cocheck_util.Numerics.fequal ~eps:1e-9 wf wo) then
          Alcotest.failf
            "%s: drain at %.6g fast picked %d (waste %.17g), oracle %d (waste %.17g)"
            ctx now f.T.r_key wf o.T.r_key wo
    | Some _, None | None, Some _ -> Alcotest.failf "%s: drain length mismatch" ctx
  in
  drain 1e7

let test_differential () =
  for seed = 0 to 299 do
    let s = gen_schedule ~seed in
    run_schedule ~ctx:(Printf.sprintf "seed %d" seed) s
  done

(* Stats must stay consistent between the two implementations as well:
   same grant and cancellation totals once a schedule fully drains. *)
let test_stats_agree () =
  for seed = 300 to 320 do
    let s = gen_schedule ~seed in
    let ctx = Printf.sprintf "stats seed %d" seed in
    run_schedule ~ctx s
  done

let () =
  Alcotest.run "cocheck.arbiter-differential"
    [
      ( "differential",
        [
          Alcotest.test_case "300 randomized schedules" `Quick test_differential;
          Alcotest.test_case "20 more (stats consistency)" `Quick test_stats_agree;
        ] );
    ]
