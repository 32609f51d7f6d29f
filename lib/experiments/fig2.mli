(** Figure 2: waste ratio as a function of node MTBF (2 → 50 years) for the
    seven strategies and the theoretical model — LANL APEX workload on
    Cielo with a 40 GB/s filesystem. *)

val spec : Spec.t
(** The figure's preset: Cielo at 40 GB/s and the node-MTBF axis 2, 3, 5,
    10, 20, 35, 50 years (spanning the paper's log-scale axis); strategies
    and replication protocol as {!Fig1.spec}. [simctl fig2] runs it as a
    campaign; its flags override fields of it. *)

val run :
  pool:Cocheck_parallel.Pool.t -> ?reps:int -> ?seed:int -> ?days:float -> unit -> Figures.t
(** {!spec} with the given replication protocol, run without a store and
    assembled by {!Runner.to_figure}. *)
