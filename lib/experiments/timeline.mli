(** Platform-utilization timelines reconstructed from a simulation trace.

    Buckets the simulated time axis and, from [Job_started] /
    [Job_completed] / [Job_killed] events, reconstructs how many nodes were
    enrolled in each bucket — the visual form of the Section 2 requirement
    that at least 98 % of the nodes stay enrolled, and a quick way to see
    failure-induced dips and drain effects at the workload edges. *)

type bucket = {
  t0 : float;
  t1 : float;
  mean_nodes_busy : float;
  starts : int;  (** job instances started in the bucket *)
  kills : int;  (** failure kills in the bucket *)
  completions : int;
}

type t = { total_nodes : int; buckets : bucket list }

val build : trace:Cocheck_sim.Trace.t -> total_nodes:int -> horizon:float -> ?buckets:int -> unit -> t
(** Requires the trace to hold every event of the run; [buckets]
    defaults to 60. Raises [Invalid_argument], naming the count, when the
    trace's ring evicted any event ({!Cocheck_sim.Trace.dropped} > 0): a
    missing [Job_started] would under-count utilisation. *)

val mean_utilization : t -> float
(** Node-weighted mean utilisation over all buckets, in [0, 1]. *)

val render : t -> string
(** An ASCII bar chart of utilisation per bucket, annotated with kill
    counts. *)
