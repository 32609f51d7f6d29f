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
    the others. The straightforward O(n²) list formulation of that choice
    lives in [test/lw_reference.ml] as the differential oracle; the
    simulator uses the O(n) {!Aggregate}. *)

(** Incremental time-linear aggregates for Least-Waste arbitration.

    Written against absolute clocks (enqueue instant, last-commit instant),
    every candidate's Eq. (1)/(2) term is affine in the evaluation instant
    [now] {e and} in the service time [v] of the candidate under
    consideration, so the pool-wide sum collapses to three scalars

    {v Σ_j term_j(now, v) = A·now + B + S1·v v}

    maintained in O(1) on every add and {!Aggregate.remove}. The
    inflicted waste of member [i] is then recovered by self-exclusion,

    {v W_i = v_i · (A·now + B + S1·v_i − term_i(now, v_i)) v}

    turning a full Least-Waste grant into one O(pool) scan with no
    intermediate candidate list. Per-member terms keep the exact float
    expressions of the direct Σ_{j≠i} sum; only the summation order
    differs from the list oracle, so results agree to rounding
    (differentially tested, see [test/lw_reference.ml]). The running sums are reset to
    exact zeros whenever the pool drains, bounding float drift to one busy
    period.

    Keys are non-negative integers indexing a flat key → slot array, so
    they should be dense: memory grows with the largest key ever added.
    The simulator keys by request-record build number, which stays below
    the deepest backlog of the run. *)
module Aggregate : sig
  type t

  val create : node_mtbf_s:float -> t
  (** An empty pool. Raises [Invalid_argument] if [node_mtbf_s <= 0]. *)

  val add_io : t -> key:int -> nodes:int -> service_s:float -> enqueued_at:float -> unit
  (** Add a blocked transfer, waiting since [enqueued_at] (its [waited_s]
      at evaluation time is [now − enqueued_at]). O(1), amortized over the
      index's growth; the fields land directly in the pool's flat arrays,
      so the simulator's per-request hot path allocates nothing here.
      Raises [Invalid_argument] on a duplicate or negative key. *)

  val add_ckpt :
    t ->
    key:int ->
    nodes:int ->
    ckpt_s:float ->
    recovery_s:float ->
    last_commit_end:float ->
    unit
  (** Add a checkpoint request whose last commit ended at
      [last_commit_end] (its [exposed_s] at evaluation time is
      [now − last_commit_end]). Same contract as {!add_io}. *)

  val remove : t -> key:int -> unit
  (** O(1); subtracts exactly the contribution the add recorded for
      [key] (no-op on unknown keys). *)

  val waste : t -> now:float -> key:int -> float
  (** The inflicted waste [W_i] of member [key] at [now]: its service time
      times (the summed term of every member minus its own). Raises
      [Invalid_argument] on an unknown key. *)
end
