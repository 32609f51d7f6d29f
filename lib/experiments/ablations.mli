(** Ablation studies for the design choices DESIGN.md calls out — each
    isolates one modelling knob on the flagship Cielo scenario and reports
    how the strategy comparison moves.

    All return a rendered {!Cocheck_util.Table.t} (plus the raw numbers for
    tests). *)

type row = { label : string; values : (string * float) list }

type study = { title : string; rows : row list; table : Cocheck_util.Table.t }

val failure_distribution :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** Exponential (the paper) vs clustered Weibull (shape 0.7, the field-data
    regime of Tiwari et al.) vs spaced Weibull (shape 1.5) failure timing,
    at equal failure rates. Mean waste ratio per law for Oblivious-Fixed,
    Oblivious-Daly, Ordered-NB-Daly and Least-Waste. *)

val interference_model :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** The footnote-2 adversarial model: sweep the contention-degradation
    factor α over 0, 0.25, 0.5 and 1 and watch Oblivious collapse while
    the token strategies (which never run concurrent transfers) hold. *)

val burst_buffer :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** The Section 8 extension: sweep burst-buffer capacity (none, 100 TB,
    400 TB, 1.6 PB, at 1000 GB/s buffer bandwidth) under a scarce 40 GB/s
    PFS and report waste, absorption and spill counts for a blocking and a
    cooperative strategy. *)

val period_scaling : unit -> study
(** Analytic Arunagiri study on the four APEX classes at Cielo/40 GB/s:
    relative waste and relative I/O pressure at γ·P_Daly for γ in 0.5,
    0.8, 1, 1.5, 2 and 3. *)

val value : study -> row:string -> col:string -> float option
(** Lookup for tests. *)

val optimal_periods :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** Daly vs Theorem-1-optimal periods under the non-blocking scheduler,
    across the bandwidth range where the I/O constraint activates (30, 40,
    60 and 100 GB/s). Tests the paper's remark that the optimal periods
    "may not be achievable": how much of the Daly-vs-bound gap do the KKT
    periods close in an actual schedule? *)

val two_level :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** SCR-style two-level checkpointing (references [9][15]): sweep the
    soft-failure fraction over 0, 0.3, 0.6 and 0.9 and compare
    single-level against two-level waste under the cooperative scheduler,
    next to the analytic prediction of {!Cocheck_core.Multilevel} at L = 2
    for the EAP class. *)

val flush_bandwidth :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** The hierarchy extension: a 400 TB buffer tier absorbs checkpoints at
    1000 GB/s and flushes to the PFS over a dedicated edge whose
    bandwidth is swept over 2, 5, 10, 20 and 40 GB/s. Mean waste per
    strategy per flush bandwidth, with the
    {!Cocheck_core.Lower_bound.solve_model_hierarchical} bound in the last
    column — waste should fall monotonically toward it as the edge
    widens. *)

val fixed_period :
  pool:Cocheck_parallel.Pool.t ->
  ?reps:int ->
  ?seed:int ->
  ?days:float ->
  unit ->
  study
(** Sensitivity of the Fixed strategies to the chosen period (the paper's
    heuristic is "one or a few hours"): sweep the application-defined
    period over 30 min, 1 h, 2 h and 4 h and compare the blocking and
    non-blocking Fixed strategies against the Daly-period reference. *)

val studies :
  (string
  * (pool:Cocheck_parallel.Pool.t -> reps:int -> seed:int -> days:float -> study))
  list
(** Every study above, in report order, keyed by its [simctl ablation]
    selector. [simctl ablation all] and {!Report.generate} both walk this
    list; {!period_scaling} is analytic and ignores the Monte Carlo
    arguments. *)
