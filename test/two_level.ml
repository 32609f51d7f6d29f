module Multilevel = Cocheck_core.Multilevel
module Daly = Cocheck_core.Daly
module Waste = Cocheck_core.Waste

type params = {
  local_cost_s : float;
  local_recovery_s : float;
  global_cost_s : float;
  global_recovery_s : float;
  mtbf_s : float;
  soft_fraction : float;
}

let validate p =
  Multilevel.validate_level ~what:"Two_level" ~cost_s:p.local_cost_s
    ~recovery_s:p.local_recovery_s ~fraction:p.soft_fraction;
  if p.global_cost_s <= 0.0 then
    invalid_arg "Two_level: global cost must be positive";
  Multilevel.validate_level ~what:"Two_level" ~cost_s:p.global_cost_s
    ~recovery_s:p.global_recovery_s ~fraction:(1.0 -. p.soft_fraction);
  if p.mtbf_s <= 0.0 then invalid_arg "Two_level: MTBF must be positive"

let to_multilevel p =
  validate p;
  {
    Multilevel.levels =
      [
        {
          Multilevel.cost_s = p.local_cost_s;
          recovery_s = p.local_recovery_s;
          fraction = p.soft_fraction;
        };
        {
          Multilevel.cost_s = p.global_cost_s;
          recovery_s = p.global_recovery_s;
          fraction = 1.0 -. p.soft_fraction;
        };
      ];
    mtbf_s = p.mtbf_s;
  }

(* A term x/P vanishes (not NaNs) at P = infinity. *)
let over x p = if Float.is_finite p then x /. p else 0.0

let waste params ~local_period_s ~global_period_s =
  validate params;
  if local_period_s <= 0.0 || global_period_s <= 0.0 then
    invalid_arg "Two_level.waste: periods must be positive";
  let p = params.soft_fraction in
  over params.local_cost_s local_period_s
  +. over params.global_cost_s global_period_s
  +. (1.0 /. params.mtbf_s)
     *. ((p *. (params.local_recovery_s +. (Float.min local_period_s global_period_s /. 2.0)))
        +. ((1.0 -. p) *. (params.global_recovery_s +. (global_period_s /. 2.0))))

let optimal_periods params =
  validate params;
  let p = params.soft_fraction in
  let local =
    if p <= 0.0 || params.local_cost_s <= 0.0 then infinity
    else sqrt (2.0 *. params.mtbf_s *. params.local_cost_s /. p)
  in
  let global =
    if p >= 1.0 then infinity
    else sqrt (2.0 *. params.mtbf_s *. params.global_cost_s /. (1.0 -. p))
  in
  (local, global)

let optimal_waste params =
  let local_period_s, global_period_s = optimal_periods params in
  (* Evaluate with the vanishing convention of [over] for infinite periods:
     an infinite local period means soft failures roll back to the last
     global checkpoint instead. *)
  if Float.is_finite local_period_s && Float.is_finite global_period_s then
    waste params ~local_period_s ~global_period_s
  else if Float.is_finite global_period_s then
    (* No local level: everything recovers from global. *)
    over params.global_cost_s global_period_s
    +. (1.0 /. params.mtbf_s) *. (params.global_recovery_s +. (global_period_s /. 2.0))
  else
    (* p = 1: only the local level matters. *)
    over params.local_cost_s local_period_s
    +. (1.0 /. params.mtbf_s)
       *. (params.local_recovery_s +. (if Float.is_finite local_period_s then local_period_s /. 2.0 else 0.0))

let single_level_waste params =
  validate params;
  let period = Daly.period ~ckpt_s:params.global_cost_s ~mtbf_s:params.mtbf_s in
  Waste.job_waste ~ckpt_s:params.global_cost_s ~period_s:period
    ~recovery_s:params.global_recovery_s ~mtbf_s:params.mtbf_s

let worthwhile params = optimal_waste params < single_level_waste params -. 1e-12
