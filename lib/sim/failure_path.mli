(** The failure path: node strikes mapped to their victim instance, the
    kill/rollback accounting (hard to the last global commit, soft to the
    newest node-local snapshot), and resubmission for restart. *)

val kill_inst : Sim_types.w -> Sim_types.inst -> unit
(** Kill an instance: abort its transfer, roll back uncommitted work,
    release its nodes and token, withdraw its arbiter requests, and
    requeue it at the head of the submission queue. *)

val handle_failure : Sim_types.w -> int -> unit
(** Process one platform failure striking the given node (a no-op beyond
    counting when the node is idle). *)

val schedule_failures : Sim_types.w -> Failure_trace.t -> unit
(** Lazily walk the failure trace onto the engine calendar up to the
    horizon. *)
