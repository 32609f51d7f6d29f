(** List-based Least-Waste arbitration — the differential-testing oracle.

    The straightforward formulation of the Section 3.4 policy: candidate
    records, the direct Eq. (1)/(2) sum, an arrival-ordered request list,
    a candidate list materialized per grant and selection by the
    O(pending²) {!select}. The production {!Arbiter.least_waste} answers
    the same grants from O(1)-maintained affine aggregates (see
    {!Cocheck_core.Least_waste.Aggregate});
    [test/test_arbiter_differential.ml] replays randomized request schedules
    through both and demands identical selections (equal inflicted wastes on
    floating-point near-ties). Test-only — the simulator never
    constructs this policy. *)

open Cocheck_sim

(** Candidate descriptions for the Least-Waste token arbitration
    (Section 3.5). When the I/O token frees, the scheduler considers
    IO-candidates (jobs blocked on an input, output or recovery request,
    idle for [waited_s] seconds, needing [service_s] seconds of exclusive
    I/O) and Ckpt-candidates (jobs still computing, exposed for
    [exposed_s] seconds since their last commit, needing [ckpt_s] seconds
    to commit). *)
module Candidate : sig
  type io = {
    key : int;  (** caller's identifier for the winning request *)
    nodes : int;  (** q_j *)
    service_s : float;  (** v_j: exclusive-bandwidth transfer time *)
    waited_s : float;  (** d_j: idle time accumulated so far *)
  }

  type ckpt = {
    key : int;
    nodes : int;  (** q_j *)
    ckpt_s : float;  (** C_j *)
    exposed_s : float;  (** d_j: time since the last committed checkpoint *)
    recovery_s : float;  (** R_j *)
  }

  type t = Io of io | Ckpt of ckpt

  val key : t -> int
  val nodes : t -> int

  val service_time : t -> float
  (** Exclusive I/O time the candidate needs if selected ([v_j] or [C_j]). *)

  val validate : t -> unit
  (** Raises [Invalid_argument] on negative durations or non-positive node
      counts. *)
end

val debug_validate : bool ref
(** When set, {!select} runs {!Candidate.validate} on every candidate and
    raises [Invalid_argument] on a malformed one. Off by default. *)

val inflicted_waste : node_mtbf_s:float -> service_s:float -> self:int -> Candidate.t list -> float
(** [inflicted_waste ~node_mtbf_s ~service_s ~self candidates] is the waste
    [W_i] of Equations (1)/(2): serving for [service_s] seconds, summed over
    every candidate whose key differs from [self]. *)

val select : node_mtbf_s:float -> Candidate.t list -> Candidate.t option
(** The candidate with minimal inflicted waste; ties break towards the
    earliest in the list (FCFS among equals). [None] on an empty list.
    Raises [Invalid_argument] if [node_mtbf_s <= 0], or if any candidate
    fails {!Candidate.validate} while {!debug_validate} is set. O(n²) in
    the candidate count. *)

(** {!Cocheck_core.Least_waste.Aggregate} behind a boxed entry variant,
    the form the property tests generate. *)
module Aggregate : sig
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

  type t

  val create : node_mtbf_s:float -> t
  val add : t -> key:int -> entry -> unit
  val remove : t -> key:int -> unit
  val waste : t -> now:float -> key:int -> float

  val mem : t -> key:int -> bool
  (** Whether the aggregate holds [key]. *)

  val size : t -> int
  (** Keys ever added that the aggregate still holds. *)

  val service_time : entry -> float
  (** [v_i]: the exclusive service time the entry needs if selected. *)
end

val to_candidate :
  bandwidth_gbs:float -> now:float -> Sim_types.request -> Candidate.t
(** The Eq. (1)/(2) candidate a pending request denotes at time [now]:
    blocking transfers compete on waiting time and exclusive-bandwidth
    service time, checkpoint requests on exposure since their last commit. *)

val arbiter :
  node_mtbf_s:float -> bandwidth_gbs:float -> unit -> Sim_types.arbiter
(** A fresh oracle arbiter. Satisfies the {!Sim_types.ARBITER} contract
    (eager cancellation, arrival-order ties) with the retired list pool. *)
