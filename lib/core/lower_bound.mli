(** Theorem 1: the lower bound on platform waste under the aggregate I/O
    constraint [F = Σ n_i C_i / P_i <= 1].

    The optimal periods come from the KKT conditions of minimising the
    platform waste (Equation (7)) under the constraint (Equation (6)):

    [P_i(λ) = sqrt (2 µ N C_i (q_i/N + λ) / q_i²)]           (Equation (8))

    where λ ≥ 0 is the Lagrange multiplier, 0 when the unconstrained Daly
    periods already fit in the available I/O bandwidth. λ has no closed
    form: [F(λ)] is strictly decreasing, so we bisect for the smallest λ
    with [F(λ) <= 1]. *)

type input = {
  classes : Waste.class_load list;
  total_nodes : int;  (** N *)
  node_mtbf_s : float;  (** µ_ind *)
}

(** Whether the first-order model behind Equation (7) describes the
    solution. It assumes every period is well below its job's MTBF
    [µ_ind / q_i], so a waste of 1 or more, or a period reaching that
    MTBF, leaves the model's domain: the numbers are then no bound. *)
type domain =
  | In_model
  | Waste_reaches_one  (** the summed waste is 1 or more (or not a number) *)
  | Period_reaches_mtbf of { class_index : int; period_s : float; mtbf_s : float }
      (** the first class, in input order, whose period reaches its job's
          MTBF *)

type result = {
  lambda : float;  (** 0 when the I/O constraint is slack *)
  periods : float list;  (** per-class optimal periods, Equation (8) order-aligned *)
  daly_periods : float list;  (** unconstrained periods (λ = 0) for reference *)
  io_fraction : float;  (** F at the optimal periods; = 1 when constrained *)
  waste : float;  (** the lower bound, Equation (7) *)
  domain : domain;  (** whether [waste] and [periods] are inside the model *)
}

val period_at : lambda:float -> total_nodes:int -> node_mtbf_s:float -> Waste.class_load -> float
(** Equation (8) for one class. *)

val solve : input -> result
(** Compute the bound. Raises [Invalid_argument] on empty class lists or
    non-positive dimensions. *)

val solve_model :
  classes:(float * Cocheck_model.App_class.t) list ->
  platform:Cocheck_model.Platform.t ->
  ?avail_bandwidth_gbs:float ->
  unit ->
  result
(** Convenience wrapper: build the steady-state loads from model classes.
    [avail_bandwidth_gbs] defaults to the platform bandwidth minus the
    steady-state regular-I/O demand [Σ n_i (input_i + output_i) / walltime_i]
    (the Section 4 assumption that initial/final I/O spans the execution). *)

type hierarchical_input = {
  h_blocking : Waste.class_load list;
      (** per-class loads with C_i, R_i at the absorb (shallowest) level *)
  h_edge_ckpt_s : float list;
      (** E_i: service time of one flush through the narrowest hierarchy
          edge, order-aligned with [h_blocking] *)
  h_total_nodes : int;
  h_node_mtbf_s : float;
}

val hierarchical_period_at :
  lambda:float ->
  total_nodes:int ->
  node_mtbf_s:float ->
  Waste.class_load ->
  edge_ckpt_s:float ->
  float
(** [P_i(λ) = sqrt (2 µ N (B_i q_i/N + λ E_i) / q_i²)] — the hierarchical
    generalization of Equation (8); equal to it (up to rounding) when the
    blocking and edge service times coincide. *)

val solve_hierarchical : hierarchical_input -> result
(** The lower bound when jobs block only for the absorb write while the
    aggregate-I/O constraint (Equation (6)) applies to the flush traffic
    through the narrowest hierarchy edge. Reduces to {!solve} when
    [h_edge_ckpt_s] equals the blocking costs; the bound decreases
    monotonically as the edge widens. *)

val solve_model_hierarchical :
  classes:(float * Cocheck_model.App_class.t) list ->
  platform:Cocheck_model.Platform.t ->
  absorb_bandwidth_gbs:float ->
  edge_bandwidths_gbs:float list ->
  unit ->
  result
(** Model-level wrapper: blocking costs at [absorb_bandwidth_gbs] (the
    shallowest store), constraint at the narrowest of
    [edge_bandwidths_gbs] — the last edge drains into the PFS and has the
    steady-state regular-I/O demand subtracted first, inner edges are
    dedicated links. *)

val steady_state_regular_io_gbs :
  classes:(float * Cocheck_model.App_class.t) list ->
  platform:Cocheck_model.Platform.t ->
  float
(** The regular-I/O bandwidth demand subtracted by {!solve_model}'s
    default. *)
