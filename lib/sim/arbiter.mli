(** Pluggable token arbitration: who gets the exclusive I/O token next.

    A policy is a first-class module implementing {!Sim_types.ARBITER} —
    enqueue, withdrawal, selection and an observability snapshot — created
    per run by {!of_strategy} and stored in the world record. The
    simulator core never inspects the queue structure, so adding a
    scheduling policy means adding an implementation here (plus its
    {!Cocheck_core.Strategy} variant) and nothing else. *)

module type S = Sim_types.ARBITER
(** The arbitration contract; see {!Sim_types.ARBITER} for the field
    documentation. *)

val fifo : ?free:Sim_types.req_free -> unit -> Sim_types.arbiter
(** Arrival-order service with eager cancellation: kills tombstone the
    victim's slots in one sweep (the Ordered and Ordered-NB strategies of
    Section 3.2–3.3).

    [free] (on every policy constructor) is the request-record recycling
    stack cancellation releases into; {!of_strategy} threads the run's
    stack so {!submit} can refill retired records. The default is a
    private stack — callers driving a policy directly (tests, benches)
    keep sole ownership of their records. *)

val least_waste :
  node_mtbf_s:float ->
  bandwidth_gbs:float ->
  ?free:Sim_types.req_free ->
  unit ->
  Sim_types.arbiter
(** The Section 3.4 heuristic: grant to the candidate minimising the
    expected waste inflicted on all other pending candidates. Backed by an
    arrival-ordered pool — O(1) enqueue and removal — plus the
    {!Cocheck_core.Least_waste.Aggregate} time-linear sums keyed by each
    record's [r_key], making each grant a single allocation-free
    O(pending) loop (the pairwise Eq. (1)/(2) sum collapses to three
    incrementally-maintained scalars). Every token request targets the
    PFS — shallower storage tiers absorb their writes without the token —
    so one aggregate serves any storage hierarchy. A lone pending request
    is granted without computing its score. Differentially tested against
    the list-based oracle in [test/lw_reference.ml]. *)

val greedy_exposure : ?free:Sim_types.req_free -> unit -> Sim_types.arbiter
(** Grant to the request with the largest exposure × nodes product — the
    most node-seconds at risk of being lost to a failure. A cheap
    O(pending) contrast to {!least_waste}; not part of the paper's seven. *)

val of_strategy :
  Cocheck_core.Strategy.t ->
  node_mtbf_s:float ->
  bandwidth_gbs:float ->
  ?free:Sim_types.req_free ->
  unit ->
  Sim_types.arbiter
(** The policy a strategy mandates (token-less strategies get an inert
    {!fifo} they never enqueue into). [free] should be the run's
    [w.req_free] so retired records recycle through {!submit}. *)

val submit : Sim_types.w -> Sim_types.inst -> Sim_types.rkind -> float -> unit
(** Hand a request (stamped with the current time) for [volume]
    gigabytes to the run's policy, refilling a recycled record from
    [w.req_free] when one is available — the steady state allocates no
    request records at all. A newly built record takes the next build
    number of [w.req_free] as its permanent [r_key]. *)

val cancel_requests_of : Sim_types.w -> Sim_types.inst -> unit
(** Withdraw every pending request of an instance (on kill or completion);
    after this the instance can never be granted the token. *)

val try_grant : Sim_types.w -> unit
(** Grant the token to the policy's choice if it is free and a live
    request is pending, then dispatch to the I/O or checkpoint grant
    continuation. No-op for token-less strategies. *)

val pending : Sim_types.w -> int
(** Live requests awaiting the token (probe helper). *)

val stats : Sim_types.w -> Sim_types.arb_stats
(** The run's arbitration counters so far. *)
