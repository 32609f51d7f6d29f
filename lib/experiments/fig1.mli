(** Figure 1: waste ratio as a function of aggregate filesystem bandwidth
    (40 → 160 GB/s) for the seven strategies and the theoretical model —
    LANL APEX workload on Cielo, node MTBF 2 years. *)

val spec : Spec.t
(** The figure's preset, holding the paper's parameters: Cielo at a 2-year
    node MTBF, the bandwidth axis 40, 60, …, 160 GB/s, the paper's seven
    strategies, 100 replications, seed 42, 60-day segments. [simctl fig1]
    runs it as a campaign; its flags override fields of it. *)

val run :
  pool:Cocheck_parallel.Pool.t -> ?reps:int -> ?seed:int -> ?days:float -> unit -> Figures.t
(** {!spec} with the given replication protocol, run without a store and
    assembled by {!Runner.to_figure}. *)
