open Cocheck_util
open Sim_types
module Strategy = Cocheck_core.Strategy
module Io = Io_subsystem

(* The strategy's checkpoint discipline is fully captured by two predicates
   (token? blocking?) plus the arbiter's selection policy: adding a policy
   touches neither this module nor the lifecycle. *)

(* The work the checkpoint would capture if taken now — [work_done] plus
   the open compute interval, evaluated before pausing so storage tiers
   can decide on the capture before the pause mutates the instance. Equals
   [work_done] after {!pause_compute} bit-for-bit. *)
let capture_content w inst =
  let t = w.clock.now in
  if t > inst.fl.compute_start then inst.fl.work_done +. (t -. inst.fl.compute_start)
  else inst.fl.work_done

let rec schedule_ckpt_request w inst =
  if w.ckpt_enabled && inst.fl.total_work -. inst.fl.work_done > eps_work then
    arm w inst b_request
      ~at:(w.clock.now +. Float.max 0.0 (inst.fl.period -. inst.fl.ckpt_nominal))

and on_ckpt_request w inst =
  emit_inst w inst Trace.Ckpt_requested;
  match inst.activity with
  | Computing ->
      let f = inst.fl in
      let left = f.total_work -. f.work_done -. (w.clock.now -. f.compute_start) in
      (* When the work runs out within [eps_work], no checkpoint: the
         work-done boundary ends the phase. *)
      if left > eps_work then begin
        (* A storage tier in front of the PFS absorbs the commit at its own
           speed, bypassing the strategy's PFS arbitration entirely; a full
           tier counts the spill itself and the commit falls back to the
           strategy's PFS path below. *)
        let absorbed =
          match w.hier with Some h -> try_hier_ckpt w h inst | None -> false
        in
        if not absorbed then begin
          if not w.uses_token then begin
            (* Oblivious: the transfer starts at once, wait is zero. *)
            Stats.running_add w.ckpt_wait_stats.(inst.spec.Jobgen.class_index) 0.0;
            pause_compute w inst;
            start_ckpt_flow w inst
          end
          else if Strategy.is_blocking w.cfg.Config.strategy then begin
            pause_compute w inst;
            inst.activity <- Waiting_ckpt;
            inst.fl.wait_start <- w.clock.now;
            Arbiter.submit w inst Req_ckpt inst.spec.Jobgen.ckpt_gb;
            Arbiter.try_grant w
          end
          else begin
            inst.activity <- Computing_pending;
            Arbiter.submit w inst Req_ckpt inst.spec.Jobgen.ckpt_gb;
            Arbiter.try_grant w
          end
        end
      end
  | Local_ckpt ->
      (* A local snapshot is in flight: retry just after it finishes. *)
      let retry =
        if Array.length w.snap > 0 then
          Float.max w.snap.(inst.local_level).Config.sl_cost_s 1.0
        else 1.0
      in
      arm w inst b_request ~at:(w.clock.now +. retry)
  | Doing_io | Computing_pending | Waiting_io | Waiting_ckpt | Local_recovery ->
      (* A request is armed only while the job computes or snapshots (it
         is consumed when it fires and disarmed on kill or completion),
         so a firing request always finds it in one of those states. *)
      assert false

and start_ckpt_flow w inst =
  emit_inst w inst Trace.Ckpt_started;
  inst.fl.ckpt_content <- inst.fl.work_done;
  let flow =
    Io.start_flow w.io ~nodes:inst.spec.Jobgen.nodes ~kind:Io.Ckpt
      ~volume_gb:inst.spec.Jobgen.ckpt_gb ~on_complete:inst.cb_ckpt_done
  in
  doing_io inst w.io flow Io.Ckpt

and try_hier_ckpt w h inst =
  let content = capture_content w inst in
  match
    Ckpt_hierarchy.write h ~owner:inst.spec.Jobgen.id ~inst:inst.idx
      ~nodes:inst.spec.Jobgen.nodes ~volume_gb:inst.spec.Jobgen.ckpt_gb
      ~content ~at:w.clock.now ~on_complete:inst.cb_ckpt_done
  with
  | None -> false
  | Some (pool, flow) ->
      pause_compute w inst;
      emit_inst w inst Trace.Ckpt_started;
      inst.fl.ckpt_content <- inst.fl.work_done;
      doing_io inst pool flow Io.Ckpt;
      true

and on_ckpt_done w inst =
  release_token w inst;
  inst.fl.committed <- inst.fl.ckpt_content;
  if tracing w then emit_inst w inst (Trace.Ckpt_committed { work = inst.fl.ckpt_content });
  (* A global commit also refreshes every snapshot level's capture point:
     anything a snapshot would roll back to is at least this safe. *)
  for k = 0 to Array.length w.snap - 1 do
    if inst.fl.ckpt_content > inst.committed_local.(k) then
      inst.committed_local.(k) <- inst.fl.ckpt_content;
    inst.local_safe_time.(k) <- w.clock.now
  done;
  (* Commits through the strategy's PFS path are durable below the
     hierarchy; record them so recovery weighs the PFS copy against
     shallower (possibly older) hierarchy copies. *)
  (match w.hier with
  | Some h -> (
      match inst.activity with
      | Doing_io when inst.io_sub == w.io ->
          Ckpt_hierarchy.note_pfs_commit h ~owner:inst.spec.Jobgen.id ~inst:inst.idx
            ~content:inst.fl.ckpt_content ~at:w.clock.now
      | _ -> ())
  | None -> ());
  flush_uncommitted w inst Metrics.Work;
  if inst.has_ckpt then
    Stats.running_add
      w.interval_stats.(inst.spec.Jobgen.class_index)
      (w.clock.now -. inst.fl.last_commit_end);
  inst.has_ckpt <- true;
  inst.fl.last_commit_end <- w.clock.now;
  w.ckpts_committed <- w.ckpts_committed + 1;
  schedule_ckpt_request w inst;
  start_compute w inst;
  if w.uses_token then Arbiter.try_grant w

(* The Req_ckpt grant continuation ({!Arbiter.try_grant} dispatches here
   through [w.h_grant_ckpt]). *)
let grant_ckpt w (req : request) =
  let inst = req.r_inst in
  Stats.running_add
    w.ckpt_wait_stats.(inst.spec.Jobgen.class_index)
    (w.clock.now -. req.r_fl.r_at);
  (match inst.activity with
  | Waiting_ckpt -> record_wait w inst ~from:inst.fl.wait_start
  | Computing_pending -> pause_compute w inst
  | Doing_io | Computing | Waiting_io | Local_ckpt | Local_recovery -> assert false);
  start_ckpt_flow w inst;
  rearm w inst

(* ------------------------------------------------------------------ *)
(* Multilevel (snapshot-level) checkpointing.                          *)
(* ------------------------------------------------------------------ *)

let schedule_local_tick_at w inst k =
  if w.ckpt_enabled && inst.fl.total_work -. inst.fl.work_done > eps_work then
    arm w inst (b_tick k) ~at:(w.clock.now +. w.snap.(k).Config.sl_period_s)

let schedule_local_tick w inst =
  for k = 0 to Array.length w.snap - 1 do
    schedule_local_tick_at w inst k
  done

let on_local_tick w k inst =
  match inst.activity with
  | Computing ->
      let f = inst.fl in
      let left = f.total_work -. f.work_done -. (w.clock.now -. f.compute_start) in
      (* Within [eps_work] of the work running out, no snapshot. *)
      if left > eps_work then begin
        pause_compute w inst;
        inst.activity <- Local_ckpt;
        inst.local_level <- k;
        inst.fl.local_pause_start <- w.clock.now;
        arm w inst b_pause ~at:(w.clock.now +. w.snap.(k).Config.sl_cost_s)
      end
  | Doing_io | Computing_pending | Waiting_io | Waiting_ckpt | Local_ckpt ->
      (* Busy with I/O-level activity (or another level's snapshot): try
         again one of this level's periods later. *)
      schedule_local_tick_at w inst k
  | Local_recovery -> assert false

let on_local_done w inst =
  let k = inst.local_level in
  Metrics.record w.metrics ~t0:inst.fl.local_pause_start ~t1:w.clock.now
    ~nodes:inst.spec.Jobgen.nodes Metrics.Local_ckpt;
  (* The snapshot captures the state at the pause. Work banked before this
     point survives failures this level rides out; it is counted as
     progress at the next soft rollback, an optimistic first-order
     treatment (a later hard failure hitting the successor before its
     first global commit would in reality re-lose it). *)
  inst.committed_local.(k) <- inst.fl.work_done;
  inst.local_safe_time.(k) <- inst.fl.local_pause_start;
  schedule_local_tick_at w inst k;
  start_compute w inst
