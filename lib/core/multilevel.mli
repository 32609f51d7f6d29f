(** L-level checkpointing waste model (VELOC-style hierarchies): level 0 is
    the cheapest/shallowest store, the last level the PFS. Each level [k]
    serves a [fraction] of the failures — the probability that the failure
    destroyed levels shallower than [k] but left [k] intact — and a failure
    served at level [k] rolls back to the most recent checkpoint on any
    level at or below [k]:

    [W(P_1..P_L) = Σ_k C_k/P_k
                   + (1/µ)·Σ_k f_k·(R_k + min_{j≥k} P_j / 2)]

    Differentiating the separable approximation gives per-level Young/Daly
    optima [P_k = sqrt (2 µ C_k / f_k)]. The L = 2 instance, levels
    [[local; global]] with fractions [p] and [1 − p], is the two-level
    (SCR-style) model; the test suite checks it bit for bit against that
    model's closed form. *)

type level = {
  cost_s : float;  (** C_k: time to write one checkpoint at this level *)
  recovery_s : float;  (** R_k *)
  fraction : float;  (** f_k: fraction of failures served at this level *)
}

type params = {
  levels : level list;  (** shallow → deep; the last level survives everything *)
  mtbf_s : float;  (** µ, per job *)
}

val validate_level :
  what:string -> cost_s:float -> recovery_s:float -> fraction:float -> unit
(** The shared range validator for one level spec (costs non-negative,
    fraction in [0, 1]); raises [Invalid_argument] prefixed with [what].
    [Cocheck_sim.Config.validate] delegates here instead of
    re-implementing the checks. *)

val validate : params -> unit
(** Per-level checks plus: at least one level, positive MTBF, positive
    deepest cost, fractions summing to 1 (within 1e-9). *)

val waste : params -> periods:float list -> float
(** The waste expression above. Periods must be positive ([infinity] is
    allowed: that level is never checkpointed and contributes no cost). *)

val optimal_periods : params -> float list
(** Per-level Young/Daly optima, [infinity] where [fraction] or [cost_s]
    is zero. *)

val optimal_waste : params -> float
(** Waste at the optima (infinite-period terms contribute only their
    surviving parts). *)

val single_level_waste : params -> float
(** Best achievable with only the deepest level (Daly period on its cost
    against all failures) — the baseline the hierarchy must beat. *)

val worthwhile : params -> bool
(** Whether the hierarchy beats {!single_level_waste}. *)
