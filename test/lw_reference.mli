(** List-based Least-Waste arbitration — the differential-testing oracle.

    The straightforward formulation of the Section 3.4 policy: an
    arrival-ordered request list, a candidate list materialized per grant,
    selection by the O(pending²) {!Cocheck_core.Least_waste.select}. The
    production {!Arbiter.least_waste} answers the same grants from O(1)-
    maintained affine aggregates (see {!Cocheck_core.Least_waste.Aggregate});
    [test/test_arbiter_differential.ml] replays randomized request schedules
    through both and demands identical selections (equal inflicted wastes on
    floating-point near-ties). Test-only — the simulator never
    constructs this policy. *)

open Cocheck_sim

val to_candidate :
  bandwidth_gbs:float -> now:float -> Sim_types.request -> Cocheck_core.Candidate.t
(** The Eq. (1)/(2) candidate a pending request denotes at time [now]:
    blocking transfers compete on waiting time and exclusive-bandwidth
    service time, checkpoint requests on exposure since their last commit. *)

val arbiter :
  node_mtbf_s:float -> bandwidth_gbs:float -> unit -> Sim_types.arbiter
(** A fresh oracle arbiter. Satisfies the {!Sim_types.ARBITER} contract
    (eager cancellation, arrival-order ties) with the retired list pool. *)
