open Cocheck_util

type input = {
  classes : Waste.class_load list;
  total_nodes : int;
  node_mtbf_s : float;
}

type domain =
  | In_model
  | Waste_reaches_one
  | Period_reaches_mtbf of { class_index : int; period_s : float; mtbf_s : float }

type result = {
  lambda : float;
  periods : float list;
  daly_periods : float list;
  io_fraction : float;
  waste : float;
  domain : domain;
}

(* The first-order expansion behind Equation (7) holds while every period
   stays well below its job's MTBF (µ_ind / q_i) and the waste below 1;
   past either edge its numbers mean nothing. The summed waste is checked
   first (a NaN waste fails it too), then the classes in order. *)
let domain_of ~(classes : Waste.class_load list) ~periods ~node_mtbf_s ~waste =
  if not (waste < 1.0) then Waste_reaches_one
  else
    let rec first i classes periods =
      match (classes, periods) with
      | (c : Waste.class_load) :: classes, p :: periods ->
          let mtbf_s = node_mtbf_s /. float_of_int c.q in
          if p >= mtbf_s then Period_reaches_mtbf { class_index = i; period_s = p; mtbf_s }
          else first (i + 1) classes periods
      | _ -> In_model
    in
    first 0 classes periods

let period_at ~lambda ~total_nodes ~node_mtbf_s (c : Waste.class_load) =
  let n = float_of_int total_nodes and q = float_of_int c.q in
  sqrt (2.0 *. node_mtbf_s *. n *. c.ckpt_s *. ((q /. n) +. lambda) /. (q *. q))

let solve input =
  if input.classes = [] then invalid_arg "Lower_bound.solve: no classes";
  if input.total_nodes <= 0 then invalid_arg "Lower_bound.solve: total_nodes must be positive";
  if input.node_mtbf_s <= 0.0 then invalid_arg "Lower_bound.solve: MTBF must be positive";
  List.iter
    (fun (c : Waste.class_load) ->
      if c.n <= 0.0 || c.q <= 0 || c.ckpt_s <= 0.0 then
        invalid_arg "Lower_bound.solve: degenerate class load")
    input.classes;
  let periods_at lambda =
    List.map
      (period_at ~lambda ~total_nodes:input.total_nodes ~node_mtbf_s:input.node_mtbf_s)
      input.classes
  in
  let excess lambda =
    Waste.io_fraction ~classes:input.classes ~periods:(periods_at lambda) -. 1.0
  in
  (* F(λ) is strictly decreasing in λ, so the KKT multiplier is the smallest
     non-negative root of F(λ) = 1 (0 when F(0) <= 1 already). *)
  let lambda = Numerics.find_min_positive ~f:excess ~hi0:1.0 () in
  let periods = periods_at lambda in
  let daly_periods = periods_at 0.0 in
  let waste =
    Waste.platform_waste ~classes:input.classes ~periods ~total_nodes:input.total_nodes
      ~node_mtbf_s:input.node_mtbf_s
  in
  {
    lambda;
    periods;
    daly_periods;
    io_fraction = Waste.io_fraction ~classes:input.classes ~periods;
    waste;
    domain =
      domain_of ~classes:input.classes ~periods ~node_mtbf_s:input.node_mtbf_s ~waste;
  }

let steady_state_regular_io_gbs ~classes ~platform =
  Numerics.sum_by
    (fun (n, c) ->
      let open Cocheck_model in
      n
      *. (App_class.input_gb c ~platform +. App_class.output_gb c ~platform)
      /. c.App_class.walltime_s)
    classes

(* --- Hierarchical extension (L-level checkpoint stores) ----------------

   With an asynchronous hierarchy the checkpoint cost splits in two: the
   job blocks only for the *absorb* write into the shallowest level
   (cost [b.ckpt_s] below), while the sustained flush toward the PFS must
   fit through the narrowest edge of the hierarchy — that is where the
   Section 4 aggregate-I/O constraint now lives. Minimising Equation (7)
   built on the blocking costs under [Σ n_i E_i / P_i <= 1] on the edge
   service times E_i gives the KKT stationary point

   [P_i(λ) = sqrt (2 µ N (B_i q_i/N + λ E_i) / q_i²)]

   which reduces to Equation (8) when B_i = E_i. F(λ) is again strictly
   decreasing, so the same bisection applies. *)

type hierarchical_input = {
  h_blocking : Waste.class_load list;
      (** per-class loads with C_i, R_i at the absorb (shallowest) level *)
  h_edge_ckpt_s : float list;
      (** E_i: per-class service time of one flush through the narrowest
          hierarchy edge, order-aligned with [h_blocking] *)
  h_total_nodes : int;
  h_node_mtbf_s : float;
}

let hierarchical_period_at ~lambda ~total_nodes ~node_mtbf_s
    (b : Waste.class_load) ~edge_ckpt_s =
  let n = float_of_int total_nodes and q = float_of_int b.q in
  sqrt
    (2.0 *. node_mtbf_s *. n
    *. ((b.ckpt_s *. (q /. n)) +. (lambda *. edge_ckpt_s))
    /. (q *. q))

let solve_hierarchical input =
  if input.h_blocking = [] then invalid_arg "Lower_bound.solve_hierarchical: no classes";
  if List.length input.h_edge_ckpt_s <> List.length input.h_blocking then
    invalid_arg "Lower_bound.solve_hierarchical: classes/edges arity mismatch";
  if input.h_total_nodes <= 0 then
    invalid_arg "Lower_bound.solve_hierarchical: total_nodes must be positive";
  if input.h_node_mtbf_s <= 0.0 then
    invalid_arg "Lower_bound.solve_hierarchical: MTBF must be positive";
  List.iter2
    (fun (b : Waste.class_load) e ->
      if b.n <= 0.0 || b.q <= 0 || b.ckpt_s <= 0.0 || e <= 0.0 then
        invalid_arg "Lower_bound.solve_hierarchical: degenerate class load")
    input.h_blocking input.h_edge_ckpt_s;
  (* The constraint acts on the edge service times: reuse the class loads
     with C_i := E_i so [Waste.io_fraction] applies unchanged. *)
  let edge_loads =
    List.map2
      (fun (b : Waste.class_load) e -> { b with Waste.ckpt_s = e })
      input.h_blocking input.h_edge_ckpt_s
  in
  let periods_at lambda =
    List.map2
      (fun b e ->
        hierarchical_period_at ~lambda ~total_nodes:input.h_total_nodes
          ~node_mtbf_s:input.h_node_mtbf_s b ~edge_ckpt_s:e)
      input.h_blocking input.h_edge_ckpt_s
  in
  let excess lambda =
    Waste.io_fraction ~classes:edge_loads ~periods:(periods_at lambda) -. 1.0
  in
  let lambda = Numerics.find_min_positive ~f:excess ~hi0:1.0 () in
  let periods = periods_at lambda in
  let waste =
    Waste.platform_waste ~classes:input.h_blocking ~periods ~total_nodes:input.h_total_nodes
      ~node_mtbf_s:input.h_node_mtbf_s
  in
  {
    lambda;
    periods;
    daly_periods = periods_at 0.0;
    io_fraction = Waste.io_fraction ~classes:edge_loads ~periods;
    waste;
    domain =
      domain_of ~classes:input.h_blocking ~periods ~node_mtbf_s:input.h_node_mtbf_s ~waste;
  }

let solve_model_hierarchical ~classes ~platform ~absorb_bandwidth_gbs
    ~edge_bandwidths_gbs () =
  if absorb_bandwidth_gbs <= 0.0 then
    invalid_arg "Lower_bound.solve_model_hierarchical: absorb bandwidth must be positive";
  if edge_bandwidths_gbs = [] then
    invalid_arg "Lower_bound.solve_model_hierarchical: no hierarchy edges";
  List.iter
    (fun b ->
      if b <= 0.0 then
        invalid_arg "Lower_bound.solve_model_hierarchical: edge bandwidth must be positive")
    edge_bandwidths_gbs;
  (* The last edge drains into the PFS and shares it with the steady-state
     regular I/O; inner edges are dedicated links. *)
  let regular = steady_state_regular_io_gbs ~classes ~platform in
  let rec bottleneck acc = function
    | [] -> acc
    | [ pfs ] -> Float.min acc (pfs -. regular)
    | e :: rest -> bottleneck (Float.min acc e) rest
  in
  let edge = bottleneck infinity edge_bandwidths_gbs in
  if edge <= 0.0 then
    invalid_arg
      "Lower_bound.solve_model_hierarchical: regular I/O saturates the flush path";
  let blocking = Waste.of_model ~classes ~platform ~avail_bandwidth_gbs:absorb_bandwidth_gbs in
  let edge_loads = Waste.of_model ~classes ~platform ~avail_bandwidth_gbs:edge in
  solve_hierarchical
    {
      h_blocking = blocking;
      h_edge_ckpt_s = List.map (fun (c : Waste.class_load) -> c.ckpt_s) edge_loads;
      h_total_nodes = platform.Cocheck_model.Platform.nodes;
      h_node_mtbf_s = platform.Cocheck_model.Platform.node_mtbf_s;
    }

let solve_model ~classes ~platform ?avail_bandwidth_gbs () =
  let avail =
    match avail_bandwidth_gbs with
    | Some b -> b
    | None ->
        platform.Cocheck_model.Platform.bandwidth_gbs
        -. steady_state_regular_io_gbs ~classes ~platform
  in
  if avail <= 0.0 then
    invalid_arg "Lower_bound.solve_model: regular I/O saturates the bandwidth";
  solve
    {
      classes = Waste.of_model ~classes ~platform ~avail_bandwidth_gbs:avail;
      total_nodes = platform.Cocheck_model.Platform.nodes;
      node_mtbf_s = platform.Cocheck_model.Platform.node_mtbf_s;
    }
