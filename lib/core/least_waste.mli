(** The Least-Waste selection heuristic (Equations (1) and (2)).

    Serving candidate [i] for [v] seconds inflicts on every other candidate
    [j] an expected waste:
    {ul
    {- [j] an IO-candidate: [q_j · (d_j + v)] node-seconds of additional
       deterministic idling;}
    {- [j] a Ckpt-candidate: [v/µ_j · q_j · (R_j + d_j + v/2)] expected
       node-seconds — the probability [v/µ_j] that a failure strikes [j]
       during the service window times the recovery-and-rework it would then
       pay (with [µ_j = µ_ind / q_j], this is
       [v · q_j² / µ_ind · (R_j + d_j + v/2)]).}}

    The token goes to the candidate minimising the total waste inflicted on
    the others. *)

val debug_validate : bool ref
(** When set, {!select} runs {!Candidate.validate} on every candidate and
    raises [Invalid_argument] on a malformed one. Off by default: selection
    sits on the simulator's grant hot path and well-formedness is the
    candidate constructor's obligation. Tests flip it on. *)

val inflicted_waste : node_mtbf_s:float -> service_s:float -> self:int -> Candidate.t list -> float
(** [inflicted_waste ~node_mtbf_s ~service_s ~self candidates] is the waste
    [W_i] of Equations (1)/(2): serving for [service_s] seconds, summed over
    every candidate whose key differs from [self]. *)

val select : node_mtbf_s:float -> Candidate.t list -> Candidate.t option
(** The candidate with minimal inflicted waste; ties break towards the
    earliest in the list (FCFS among equals). [None] on an empty list.
    Raises [Invalid_argument] if [node_mtbf_s <= 0], or if any candidate
    fails {!Candidate.validate} while {!debug_validate} is set. O(n²) in
    the candidate count — kept as the differential-testing oracle for the
    O(n) {!Aggregate} path. *)

(** Incremental time-linear aggregates for Least-Waste arbitration.

    Written against absolute clocks (enqueue instant, last-commit instant),
    every candidate's Eq. (1)/(2) term is affine in the evaluation instant
    [now] {e and} in the service time [v] of the candidate under
    consideration, so the pool-wide sum collapses to three scalars

    {v Σ_j term_j(now, v) = A·now + B + S1·v v}

    maintained in O(1) on every {!Aggregate.add}/{!Aggregate.remove}. The
    inflicted waste of member [i] is then recovered by self-exclusion,

    {v W_i = v_i · (A·now + B + S1·v_i − term_i(now, v_i)) v}

    turning a full Least-Waste grant into one O(pool) scan with no
    intermediate candidate list. Per-member terms keep the exact float
    expressions of {!inflicted_waste}; only the summation order differs
    from the list oracle, so results agree to rounding (differentially
    tested, see [test/lw_reference.ml]). The running sums are reset to
    exact zeros whenever the pool drains, bounding float drift to one busy
    period.

    Keys are non-negative integers indexing a flat key → slot array, so
    they should be dense: memory grows with the largest key ever added.
    The simulator keys by request-record build number, which stays below
    the deepest backlog of the run. *)
module Aggregate : sig
  type t

  type entry =
    | Io_entry of { nodes : int; service_s : float; enqueued_at : float }
        (** A blocked transfer: [waited_s] at evaluation time is
            [now − enqueued_at]. *)
    | Ckpt_entry of {
        nodes : int;
        ckpt_s : float;
        recovery_s : float;
        last_commit_end : float;
      }
        (** A checkpoint request: [exposed_s] at evaluation time is
            [now − last_commit_end]. *)

  val create : node_mtbf_s:float -> t
  (** An empty pool. Raises [Invalid_argument] if [node_mtbf_s <= 0]. *)

  val add : t -> key:int -> entry -> unit
  (** O(1) (amortized over the index's growth). Raises [Invalid_argument]
      on a duplicate or negative key. *)

  val add_io : t -> key:int -> nodes:int -> service_s:float -> enqueued_at:float -> unit
  (** [add] of an [Io_entry] without boxing the variant: the fields land
      directly in the pool's flat arrays, so the simulator's per-request
      hot path allocates nothing here. Same duplicate-key contract. *)

  val add_ckpt :
    t ->
    key:int ->
    nodes:int ->
    ckpt_s:float ->
    recovery_s:float ->
    last_commit_end:float ->
    unit
  (** [add] of a [Ckpt_entry] without boxing the variant. *)

  val remove : t -> key:int -> unit
  (** O(1); subtracts exactly the contribution [add] recorded for [key]
      (no-op on unknown keys). *)

  val mem : t -> key:int -> bool
  val size : t -> int

  val service_time : entry -> float
  (** [v_i]: the exclusive service time the entry needs if selected. *)

  val waste : t -> now:float -> key:int -> float
  (** The inflicted waste [W_i] of member [key] at [now]: its service time
      times (the summed term of every member minus its own). Raises
      [Invalid_argument] on an unknown key. *)
end
