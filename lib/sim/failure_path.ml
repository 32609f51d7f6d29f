open Sim_types
module Engine = Cocheck_des.Engine
module Jobgen = Cocheck_model.Jobgen
module Io = Io_subsystem
module Rng = Cocheck_util.Rng
module Interval_ledger = Cocheck_util.Interval_ledger

let kill_inst w inst =
  let t = w.clock.now in
  let ckpt_in_flight =
    match inst.activity with Doing_io -> inst.io_kind = Io.Ckpt | _ -> false
  in
  close_activity w inst;
  (* The aborted checkpoint is counted and traced after its flow is gone. *)
  if ckpt_in_flight then begin
    w.ckpts_aborted <- w.ckpts_aborted + 1;
    emit_inst w inst Trace.Ckpt_aborted
  end;
  release_token w inst;
  disarm_all w inst;

  Arbiter.cancel_requests_of w inst;

  let nsnap = Array.length w.snap in
  (* One uniform severity draw classifies the failure against every
     storage level at once: snapshot level k survives when
     [u < sl_survival], a hierarchy copy at level k when
     [u < bl_survival]. *)
  let has_ml = nsnap > 0 || Option.is_some w.hier in
  let u = if has_ml then Rng.unit_float w.soft_rng else 2.0 in
  (match w.hier with
  | Some h -> Ckpt_hierarchy.apply_failure h ~owner:inst.spec.Jobgen.id ~u
  | None -> ());
  (* The shallowest surviving snapshot level; -1 when none survives. *)
  let soft_level =
    let k = ref 0 in
    while !k < nsnap && not (u < w.snap.(!k).Config.sl_survival) do
      incr k
    done;
    if !k < nsnap then !k else -1
  in
  let soft = soft_level >= 0 in
  (* Work captured by the newest surviving snapshot survives the failure;
     everything ending after [safe] is lost. A hard failure keeps [safe] at
     −∞, losing the whole ledger. *)
  let safe =
    if soft then begin
      let safe = ref neg_infinity in
      for k = 0 to nsnap - 1 do
        if u < w.snap.(k).Config.sl_survival && inst.local_safe_time.(k) > !safe then
          safe := inst.local_safe_time.(k)
      done;
      !safe
    end
    else neg_infinity
  in
  let ci = inst.spec.Jobgen.class_index in
  let lost_s = Interval_ledger.lost_above inst.uncommitted ~safe in
  w.restarts_by_class.(ci) <- w.restarts_by_class.(ci) + 1;
  w.lost_ns_by_class.(ci) <-
    w.lost_ns_by_class.(ci) +. (float_of_int inst.spec.Jobgen.nodes *. lost_s);
  if tracing w then emit_inst w inst (Trace.Job_killed { lost_work = lost_s });

  flush_partition w inst ~safe;
  Metrics.record_enrolled w.metrics ~t0:inst.fl.start_time ~t1:t
    ~nodes:inst.spec.Jobgen.nodes;

  Node_pool.release w.pool inst.nodes;
  live_free w.live inst;
  Hashtbl.remove w.insts inst.idx;

  let local_best =
    (* The most work any surviving snapshot level captured. *)
    let best = ref 0.0 in
    for k = 0 to nsnap - 1 do
      if u < w.snap.(k).Config.sl_survival && inst.committed_local.(k) > !best then
        best := inst.committed_local.(k)
    done;
    !best
  in
  let base =
    match w.hier with
    | None -> if soft then Float.max inst.fl.committed local_best else inst.fl.committed
    | Some h ->
        (* With a hierarchy the failure may have destroyed the copies
           behind [committed]; only content with a surviving copy (in a
           tier or on the PFS) counts. *)
        let surv = Ckpt_hierarchy.surviving_content h ~owner:inst.spec.Jobgen.id ~inst:inst.idx in
        if soft then Float.max surv local_best else surv
  in
  let remaining = Float.max 0.0 (inst.fl.total_work -. base) in
  w.restarts <- w.restarts + 1;
  Submit_queue.push_front w.queue
    {
      e_spec = inst.spec;
      e_remaining = remaining;
      e_restart = (if soft then Soft soft_level else Hard);
      e_has_ckpt =
        (inst.has_ckpt || inst.entry_has_ckpt)
        && (match w.hier with
           | Some h -> Ckpt_hierarchy.has_any_copy h ~owner:inst.spec.Jobgen.id
           | None -> true);
      e_restarts = inst.restarts + 1;
    };
  (* The calendar handle cancelled, flows aborted, requests withdrawn, and the
     requeue entry copied out: the record can host the next start — often
     the restart [try_start] is about to launch on the just-freed nodes. *)
  release_inst w.inst_free inst;

  Lifecycle.try_start w;
  if w.uses_token then Arbiter.try_grant w

let handle_failure w node =
  w.failures_seen <- w.failures_seen + 1;
  (* [owner_idx] names the victim's live slot (grants are tagged with it at
     alloc time), so the lookup is one array read — no hash probe, no
     option box — on a path that fires once per failure, millions of times
     in the year-scale runs. *)
  let slot = Node_pool.owner_idx w.pool node in
  if slot < 0 then begin
    (* A failure striking an idle node; -1/-1 marks it in traces. *)
    if tracing w then emit w ~job:(-1) ~inst:(-1) (Trace.Node_failure { node })
  end
  else begin
    let inst = w.live.lv.(slot) in
    (* Record the victim with the failure itself so traces can correlate a
       kill with its cause. *)
    if tracing w then
      emit w ~job:inst.spec.Jobgen.id ~inst:inst.idx (Trace.Node_failure { node });
    w.failures_hitting_jobs <- w.failures_hitting_jobs + 1;
    kill_inst w inst
  end

(* One registered source serves the whole failure stream: it consumes the
   next trace event and re-arms itself, so a multi-year trace costs a
   single closure instead of one per failure. *)
let schedule_failures w trace =
  let src = ref Engine.no_source in
  let arm () =
    let t = Failure_trace.peek_time trace in
    if t <= w.cfg.Config.horizon then
      ignore (Engine.schedule_src w.engine ~kind:Ev_kind.failure ~time:t !src)
  in
  src :=
    Engine.source w.engine (fun _ ->
        handle_failure w (Failure_trace.next_node trace);
        arm ());
  arm ()
