(** The checkpoint path: periodic request scheduling, the request →
    commit/abort state machine (Section 3's blocking, non-blocking and
    burst-buffer variants), and the two-level node-local snapshot cycle.

    The strategy's discipline enters only through
    {!Cocheck_core.Strategy.uses_token} / {!Cocheck_core.Strategy.is_blocking}
    and the run's {!Arbiter} policy — no per-strategy branches live here. *)

val schedule_ckpt_request : Sim_types.w -> Sim_types.inst -> unit
(** Arm the next checkpoint request, one (P − C) after the current commit
    end; no-op once the remaining work is negligible or checkpointing is
    disabled. The caller puts the calendar handle at the new first
    boundary ({!Sim_types.rearm}). *)

val on_ckpt_request : Sim_types.w -> Sim_types.inst -> unit
(** The request boundary is due: checkpoint now under the strategy's
    discipline (or through a storage tier with room), skip it when the
    work runs out within [eps_work], or retry after an in-flight snapshot
    pause. *)

val on_ckpt_done : Sim_types.w -> Sim_types.inst -> unit
(** Commit completion: release the token, bank the captured work level,
    restart the request clock and resume computing. *)

val grant_ckpt : Sim_types.w -> Sim_types.request -> unit
(** Token-grant continuation for a checkpoint request: account the wait
    and start the PFS transfer. *)

val schedule_local_tick : Sim_types.w -> Sim_types.inst -> unit
(** Arm the next node-local snapshot of every snapshot level; no-op
    without one. *)

val on_local_tick : Sim_types.w -> int -> Sim_types.inst -> unit
(** Level [k]'s snapshot boundary is due: pause for the snapshot while
    computing, skip it when the work runs out within [eps_work], or retry
    one period later while busy. *)

val on_local_done : Sim_types.w -> Sim_types.inst -> unit
(** The snapshot pause ends: record the capture point, re-arm the level's
    tick and resume computing. *)
