open Sim_types
module Engine = Cocheck_des.Engine
module Jobgen = Cocheck_model.Jobgen
module Io = Io_subsystem
module Interval_ledger = Cocheck_util.Interval_ledger

let rec try_start w =
  (* Greedy first-fit over the priority-ordered queue: start, one at a
     time, the highest-priority entry that fits in the currently free
     nodes. Starting only shrinks the free count, so this is one pass over
     the queue in priority order. [alloc] succeeds exactly when the count
     fits the free total (grants need not be contiguous). *)
  match Submit_queue.pop_first_fit w.queue ~free:(Node_pool.free_count w.pool) with
  | None -> ()
  | Some entry -> (
      match Node_pool.alloc w.pool ~job:(live_peek w.live) ~count:entry.e_spec.Jobgen.nodes with
      | None -> assert false
      | Some nodes ->
          start_instance w entry nodes;
          try_start w)

and start_instance w entry nodes =
  let ci = entry.e_spec.Jobgen.class_index in
  let nsnap = Array.length w.snap in
  let p = w.inst_free in
  let inst =
    if p.inf_n > 0 then begin
      (* Refill a retired record. Its sources and recycled callbacks
         (installed when the record was first built) stay in place — they
         dereference the record at fire time, so they act on this, the
         current, tenant. [due] is all [infinity] and [next_ev] is
         [Engine.none]: the previous tenant's kill or completion disarmed
         every boundary. *)
      p.inf_n <- p.inf_n - 1;
      let i = p.inf.(p.inf_n) in
      i.spec <- entry.e_spec;
      i.nodes <- nodes;
      Interval_ledger.clear i.uncommitted;
      i
    end
    else begin
      let i = blank_inst ~spec:entry.e_spec ~nodes ~io:w.io ~nsnap in
      i.src_boundary <-
        Engine.source w.engine (fun _ ->
            i.next_ev <- Engine.none;
            on_boundary w i);
      i.cb_ckpt_done <- (fun () -> Ckpt_path.on_ckpt_done w i);
      i.cb_io_done <- (fun () -> on_blocking_io_done w i i.io_kind);
      i
    end
  in
  let t = w.clock.now in
  inst.idx <- w.next_inst;
  inst.entry_has_ckpt <- entry.e_has_ckpt;
  inst.restarts <- entry.e_restarts;
  inst.activity <- Computing;
  inst.has_ckpt <- false;
  inst.holds_token <- false;
  inst.local_level <- 0;
  let f = inst.fl in
  f.total_work <- entry.e_remaining;
  f.start_time <- t;
  f.period <- w.periods.(ci);
  f.ckpt_nominal <- w.ckpt_nominals.(ci);
  f.work_done <- 0.0;
  f.committed <- 0.0;
  f.compute_start <- t;
  f.last_commit_end <- t;
  f.wait_start <- t;
  f.ckpt_content <- 0.0;
  f.local_pause_start <- t;
  Array.fill inst.committed_local 0 nsnap 0.0;
  Array.fill inst.local_safe_time 0 nsnap t;
  w.next_inst <- w.next_inst + 1;
  w.jobs_started <- w.jobs_started + 1;
  (* Claims the slot the [Node_pool.alloc] grant above was tagged with:
     nothing allocates or frees between the peek and this commit. *)
  live_commit w.live inst;
  Hashtbl.replace w.insts inst.idx inst;
  if tracing w then
    emit_inst w inst
      (Trace.Job_started { restarts = inst.restarts; nodes = inst.spec.Jobgen.nodes });
  match entry.e_restart with
  | Soft k when nsnap > 0 ->
      (* Restart from the surviving snapshot level: a fixed per-level
         delay, no PFS traffic. *)
      let k = min k (nsnap - 1) in
      inst.activity <- Local_recovery;
      inst.local_level <- k;
      inst.fl.wait_start <- w.clock.now;
      arm w inst b_pause ~at:(w.clock.now +. w.snap.(k).Config.sl_recovery_s);
      rearm w inst
  | Fresh | Soft _ | Hard ->
      let volume =
        if entry.e_restart <> Fresh then
          if entry.e_has_ckpt then inst.spec.Jobgen.ckpt_gb else inst.spec.Jobgen.input_gb
        else inst.spec.Jobgen.input_gb
      in
      let kind = if entry.e_restart <> Fresh then Io.Recovery else Io.Input in
      begin_blocking_io w inst kind volume

(* Initial input, recovery reads and final outputs are blocking in every
   strategy; under a token discipline they queue, otherwise they start at
   once. *)
and begin_blocking_io w inst kind volume =
  inst.io_kind <- kind;
  let fast =
    (* Fast restart: the newest surviving checkpoint is still in a buffer
       tier, so the recovery read goes at that tier's speed. *)
    kind = Io.Recovery
    &&
    match w.hier with
    | Some h -> (
        match Ckpt_hierarchy.recovery_source h ~owner:inst.spec.Jobgen.id with
        | Some level ->
            let pool, flow =
              Ckpt_hierarchy.read h ~nodes:inst.spec.Jobgen.nodes ~volume_gb:volume ~level
                ~on_complete:inst.cb_io_done
            in
            doing_io inst pool flow kind;
            true
        | None -> false)
    | None -> false
  in
  if fast then ()
  else if volume <= 0.0 then
    (* No bytes to move: complete through the flow engine's zero-volume
       path (an immediate event a kill can still abort), without taking the
       token. *)
    start_blocking_flow w inst kind 0.0
  else if w.uses_token then begin
    inst.activity <- Waiting_io;
    inst.fl.wait_start <- w.clock.now;
    Arbiter.submit w inst (rkind_io kind) volume;
    Arbiter.try_grant w
  end
  else begin
    inst.fl.io_start <- w.clock.now;
    start_blocking_flow w inst kind volume
  end

and start_blocking_flow w inst kind volume =
  let flow =
    Io.start_flow w.io ~nodes:inst.spec.Jobgen.nodes ~kind ~volume_gb:volume
      ~on_complete:inst.cb_io_done
  in
  doing_io inst w.io flow kind

(* Regular input/output transfers report their dilation factor: actual
   over nominal (full-bandwidth) duration, timed from [io_start]. Their
   volume is the spec's, so zero-volume transfers (and recovery reads)
   report nothing. *)
and emit_io_done w inst kind =
  let volume =
    match kind with
    | Io.Input -> inst.spec.Jobgen.input_gb
    | Io.Output -> inst.spec.Jobgen.output_gb
    | Io.Ckpt | Io.Recovery | Io.Drain -> 0.0
  in
  if volume > 0.0 then
    emit_inst w inst
      (Trace.Io_done
         { dilation = (w.clock.now -. inst.fl.io_start) /. (volume /. bandwidth w) })

and on_blocking_io_done w inst kind =
  if tracing w then emit_io_done w inst kind;
  release_token w inst;
  (match kind with
  | Io.Input | Io.Recovery ->
      (* Work phase begins: exposure clock starts, the first checkpoint
         request lands one (P − C) from now (subsequent requests measure
         from each commit's end, Section 2). *)
      emit_inst w inst Trace.Input_done;
      inst.fl.last_commit_end <- w.clock.now;
      Array.fill inst.local_safe_time 0 (Array.length inst.local_safe_time) w.clock.now;
      Ckpt_path.schedule_ckpt_request w inst;
      Ckpt_path.schedule_local_tick w inst;
      start_compute w inst
  | Io.Output -> finish_job w inst
  | Io.Ckpt | Io.Drain -> assert false);
  if w.uses_token then Arbiter.try_grant w

(* The instance's one calendar event: dispatch the boundary that is due
   (the earliest, ties by rank), then put the handle at the next one. *)
and on_boundary w inst =
  let b = next_boundary inst in
  disarm inst b;
  if b = b_work_done then on_work_complete w inst
  else if b = b_request then Ckpt_path.on_ckpt_request w inst
  else if b = b_pause then begin
    match inst.activity with
    | Local_recovery ->
        Metrics.record w.metrics ~t0:inst.fl.wait_start ~t1:w.clock.now
          ~nodes:inst.spec.Jobgen.nodes Metrics.Recovery_io;
        on_blocking_io_done w inst Io.Recovery
    | Local_ckpt -> Ckpt_path.on_local_done w inst
    | Doing_io | Computing | Computing_pending | Waiting_io | Waiting_ckpt -> assert false
  end
  else Ckpt_path.on_local_tick w (b - b_tick 0) inst;
  rearm w inst

and on_work_complete w inst =
  emit_inst w inst Trace.Work_completed;
  pause_compute w inst;
  disarm_all w inst;
  Arbiter.cancel_requests_of w inst;
  begin_blocking_io w inst Io.Output inst.spec.Jobgen.output_gb

and finish_job w inst =
  emit_inst w inst Trace.Job_completed;
  flush_uncommitted w inst Metrics.Work;
  Metrics.record_enrolled w.metrics ~t0:inst.fl.start_time ~t1:w.clock.now
    ~nodes:inst.spec.Jobgen.nodes;
  Node_pool.release w.pool inst.nodes;
  live_free w.live inst;
  Hashtbl.remove w.insts inst.idx;
  w.jobs_completed <- w.jobs_completed + 1;
  (* Every boundary is disarmed and the final flow completed: the record
     can host the next start ([try_start] may reuse it at once). *)
  release_inst w.inst_free inst;
  try_start w

(* The Req_io grant continuation ({!Arbiter.try_grant} dispatches here
   through [w.h_grant_io]). *)
let grant_io w (req : request) =
  let inst = req.r_inst in
  let kind = match req.r_kind with Req_io k -> k | Req_ckpt -> assert false in
  record_wait w inst ~from:inst.fl.wait_start;
  inst.fl.io_start <- w.clock.now;
  start_blocking_flow w inst kind req.r_fl.r_volume
