(** The job lifecycle: first-fit starts from the submission queue, the
    blocking input/recovery/output transfers bracketing the work phase,
    the compute clock, and completion. *)

val try_start : Sim_types.w -> unit
(** Greedy first-fit pass over the submission queue: start every entry
    that fits in the currently free nodes, in priority order. Each step
    pops the highest-priority entry among the per-node-count stacks of
    {!Submit_queue} that fit, so a pass costs O(distinct job sizes) per
    start plus one final miss, independent of the queue's depth. *)

val grant_io : Sim_types.w -> Sim_types.request -> unit
(** Token-grant continuation for a blocking transfer request: account the
    wait and start the flow. *)
