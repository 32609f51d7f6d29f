(** Event-kind indices the simulator passes as the [kind] of
    {!Cocheck_des.Engine.schedule_src} and its ranked variant, and the name
    table handed to [Engine.attach_stats] — one shared vocabulary so
    event-churn counters mean the same thing in every layer. *)

val other : int
(** Anything unclassified (also the fold-in slot for bad kinds). *)

val job : int
(** Job lifecycle: compute completions, local recovery. *)

val io : int
(** PFS flow completions and retimed completion events. *)

val ckpt : int
(** Checkpoint request timers, retries, local (two-level) ticks. *)

val failure : int
(** Node failure arrivals. *)

val probe : int
(** Read-only observability probes (time-series sampling). *)

val names : string array
(** Display names, indexed by the constants above. *)
