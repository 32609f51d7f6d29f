open Cocheck_util

type distribution =
  | Exponential
  | Weibull of { shape : float }
  | Lognormal of { sigma : float }

let distribution_name = function
  | Exponential -> "exponential"
  | Weibull { shape } -> Printf.sprintf "weibull(%g)" shape
  | Lognormal { sigma } -> Printf.sprintf "lognormal(%g)" sigma

type event = { time : float; node : int }

(* The trace's clock and the drawn-ahead failure's time, in an all-float
   record so each draw stores them unboxed. *)
type times = { mutable clock : float; mutable ahead_time : float }

type t = {
  rng : Rng.t;
  nodes : int;
  node_mtbf_s : float;
  draw_gap : Rng.t -> float;
  tm : times;
  mutable ahead_node : int;  (* node of the drawn-ahead failure; -1 when none *)
  mutable count : int;
}

(* Mean-matched inter-arrival samplers: each has expectation
   [node_mtbf_s / nodes]. *)
let gap_sampler ~nodes ~node_mtbf_s = function
  | Exponential ->
      let mean = node_mtbf_s /. float_of_int nodes in
      fun rng -> Dist.exponential rng ~mean
  | Weibull { shape } ->
      if shape <= 0.0 then invalid_arg "Failure_trace: Weibull shape must be positive";
      let mean = node_mtbf_s /. float_of_int nodes in
      (* E[Weibull(scale, k)] = scale * Gamma(1 + 1/k). *)
      let scale = mean /. Numerics.gamma (1.0 +. (1.0 /. shape)) in
      fun rng -> Dist.weibull rng ~scale ~shape
  | Lognormal { sigma } ->
      if sigma < 0.0 then invalid_arg "Failure_trace: Lognormal sigma must be non-negative";
      let mean = node_mtbf_s /. float_of_int nodes in
      (* E[LogN(mu, sigma)] = exp(mu + sigma^2/2). *)
      let mu = log mean -. (sigma *. sigma /. 2.0) in
      fun rng -> Dist.lognormal rng ~mu ~sigma

let create ~rng ~nodes ~node_mtbf_s ?(distribution = Exponential) () =
  if nodes <= 0 then invalid_arg "Failure_trace.create: nodes must be positive";
  if node_mtbf_s <= 0.0 then invalid_arg "Failure_trace.create: MTBF must be positive";
  {
    rng;
    nodes;
    node_mtbf_s;
    draw_gap = gap_sampler ~nodes ~node_mtbf_s distribution;
    tm = { clock = 0.0; ahead_time = 0.0 };
    ahead_node = -1;
    count = 0;
  }

(* Clamp only against negative gaps (a sampler bug), not against small
   ones: at extreme scales (say 50k nodes with sub-second node MTBF) the
   mean gap can sit below 1e-9 s, and a 1e-9 floor would silently inflate
   the realized failure rate's mean by 2× or more. Coincident failure
   times are fine — the calendar orders equal-time events by insertion. *)
let draw_ahead t =
  let dt = t.draw_gap t.rng in
  let time = t.tm.clock +. Float.max dt 0.0 in
  t.tm.clock <- time;
  t.tm.ahead_time <- time;
  t.ahead_node <- Rng.int t.rng t.nodes

let peek_time t =
  if t.ahead_node < 0 then draw_ahead t;
  t.tm.ahead_time

let next_node t =
  if t.ahead_node < 0 then draw_ahead t;
  let node = t.ahead_node in
  t.ahead_node <- -1;
  t.count <- t.count + 1;
  node

let next t =
  let time = peek_time t in
  { time; node = next_node t }

let generated t = t.count
let system_mtbf t = t.node_mtbf_s /. float_of_int t.nodes
