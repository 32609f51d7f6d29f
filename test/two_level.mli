(** Two-level checkpointing (SCR / FTI-style, the paper's references [9],
    [15]), the test oracle of {!Cocheck_core.Multilevel} at L = 2:
    frequent cheap {e local} checkpoints to node-local storage that survive
    only {e soft} failures (process crashes, transient faults), plus the
    usual global checkpoints to the shared PFS that survive everything.

    First-order waste model for a job with MTBF µ, a fraction [p] of whose
    failures are soft:

    [W(P_l, P_g) = C_l/P_l + C_g/P_g
                   + (1/µ)·(p·(R_l + P_l/2) + (1−p)·(R_g + P_g/2))]

    Differentiating gives independent Young/Daly-shaped optima:

    [Pl_opt = sqrt (2 µ C_l / p)],  [Pg_opt = sqrt (2 µ C_g / (1−p))].

    With [p = 0] the model collapses to single-level Daly (local
    checkpoints are pure overhead, Pl_opt → ∞); with [p → 1] global
    checkpoints become vanishingly rare. The shipped model is
    {!Cocheck_core.Multilevel}; this closed form is kept to check it. *)

type params = {
  local_cost_s : float;  (** C_l: time to take a local snapshot (no PFS traffic) *)
  local_recovery_s : float;  (** R_l *)
  global_cost_s : float;  (** C_g *)
  global_recovery_s : float;  (** R_g *)
  mtbf_s : float;  (** µ, per job *)
  soft_fraction : float;  (** p in [0, 1] *)
}

val validate : params -> unit

val to_multilevel : params -> Cocheck_core.Multilevel.params
(** Embed as the L = 2 instance of {!Cocheck_core.Multilevel}: levels
    [[local; global]] with fractions [p] and [1 − p]. [Multilevel.waste],
    [optimal_periods], [optimal_waste] and [worthwhile] on the image are
    bit-identical to the functions here (property-tested). *)

val waste : params -> local_period_s:float -> global_period_s:float -> float
(** The two-level waste expression above. Periods must be positive. *)

val optimal_periods : params -> float * float
(** [(local, global)] optima. The local one is [infinity] when
    [soft_fraction = 0]; the global one when [soft_fraction = 1]. *)

val optimal_waste : params -> float
(** Waste at the optima (terms with infinite periods contribute only their
    surviving parts). *)

val single_level_waste : params -> float
(** Best achievable without the local level (Daly period on C_g against
    all failures) — the baseline the two-level scheme must beat. *)

val worthwhile : params -> bool
(** Whether adding the local level lowers the optimal waste. True whenever
    [soft_fraction > 0] and C_l is genuinely cheaper than C_g; false at
    [soft_fraction = 0]. *)
