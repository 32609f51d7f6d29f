(** Synthetic node-failure traces.

    The paper's evaluation uses exponentially distributed failures: each of
    the [nodes] nodes fails independently with mean [node_mtbf_s], so the
    platform-level process is Poisson with rate [nodes / node_mtbf_s] and a
    uniformly random struck node — which is exactly how the trace is
    generated. Failed nodes are replaced by hot spares immediately (the
    paper's convention), so the rate never decays.

    Beyond the paper, the trace generator supports non-memoryless
    inter-arrival distributions (field studies report Weibull with shape
    below 1, i.e. temporal clustering — see Tiwari et al., "Lazy
    checkpointing", DSN'14). These are mean-matched: whatever the shape,
    the mean platform inter-arrival time stays [node_mtbf_s / nodes], so
    strategies face the same failure {e count} but different {e timing}. *)

type distribution =
  | Exponential  (** the paper's model: memoryless *)
  | Weibull of { shape : float }
      (** shape < 1 clusters failures (infant mortality / correlation);
          shape > 1 spaces them out (wear-out). Requires [shape > 0]. *)
  | Lognormal of { sigma : float }
      (** heavy-tailed quiet periods with bursts; [sigma >= 0]. *)

val distribution_name : distribution -> string

type t

type event = { time : float; node : int }

val create :
  rng:Cocheck_util.Rng.t ->
  nodes:int ->
  node_mtbf_s:float ->
  ?distribution:distribution ->
  unit ->
  t
(** The trace draws lazily from [rng]; clock starts at 0. [distribution]
    defaults to [Exponential]. *)

val next : t -> event
(** Generate the next failure (strictly increasing times). *)

val next_node : t -> int
(** {!next}'s node alone, allocating nothing: the simulator's failure
    stream reads the time with {!peek_time} when it schedules the event. *)

val peek_time : t -> float
(** Time of the failure {!next} would return, without consuming it. *)

val generated : t -> int
(** Number of events drawn so far. *)

val system_mtbf : t -> float
(** [node_mtbf_s / nodes]: the mean inter-arrival time, whatever the
    distribution. *)
