(* L-level generalization of the two-level waste model. Levels are listed
   shallow → deep; [fraction] is the probability that a failure's recovery
   is served {e at} that level (the deepest level absorbs whatever the
   shallower ones cannot). The float expressions mirror the two-level
   closed form exactly, so the L = 2 instance bit-matches the test suite's
   two-level oracle. *)

type level = { cost_s : float; recovery_s : float; fraction : float }
type params = { levels : level list; mtbf_s : float }

(* The one validator every level-shaped knob goes through: the analytic
   params here and the simulator's [Config.multilevel] both call it
   instead of re-implementing the range checks inline. *)
let validate_level ~what ~cost_s ~recovery_s ~fraction =
  if cost_s < 0.0 then invalid_arg (what ^ ": negative checkpoint cost");
  if recovery_s < 0.0 then invalid_arg (what ^ ": negative recovery cost");
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg (what ^ ": fraction outside [0, 1]")

let validate p =
  if p.levels = [] then invalid_arg "Multilevel: no levels";
  if p.mtbf_s <= 0.0 then invalid_arg "Multilevel: MTBF must be positive";
  List.iter
    (fun l ->
      validate_level ~what:"Multilevel" ~cost_s:l.cost_s ~recovery_s:l.recovery_s
        ~fraction:l.fraction)
    p.levels;
  (match List.rev p.levels with
  | deepest :: _ when deepest.cost_s <= 0.0 ->
      invalid_arg "Multilevel: deepest level cost must be positive"
  | _ -> ());
  let total = List.fold_left (fun acc l -> acc +. l.fraction) 0.0 p.levels in
  if Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg "Multilevel: level fractions must sum to 1"

(* A term x/P vanishes (not NaNs) at P = infinity — same convention as
   the two-level oracle. *)
let over x p = if Float.is_finite p then x /. p else 0.0

(* The waste expression, allowing infinite periods (a level whose period is
   infinite is simply never checkpointed; its failures roll back further).
   A failure served at level k loses on average half the shortest period
   at or below k — the first checkpoint recoverable from level k is
   whichever of those levels checkpointed most recently. *)
let waste_at p ~periods =
  let ckpt_sum =
    List.fold_left2 (fun acc l per -> acc +. over l.cost_s per) 0.0 p.levels periods
  in
  let rec recovery_sum acc levels periods =
    match (levels, periods) with
    | [], [] -> acc
    | l :: ls, _ :: _ ->
        let half_min =
          let m = List.fold_left Float.min infinity periods in
          if Float.is_finite m then m /. 2.0 else 0.0
        in
        let acc =
          if l.fraction = 0.0 then acc else acc +. (l.fraction *. (l.recovery_s +. half_min))
        in
        recovery_sum acc ls (List.tl periods)
    | _ -> invalid_arg "Multilevel.waste: levels/periods arity mismatch"
  in
  ckpt_sum +. ((1.0 /. p.mtbf_s) *. recovery_sum 0.0 p.levels periods)

let waste p ~periods =
  validate p;
  if List.length periods <> List.length p.levels then
    invalid_arg "Multilevel.waste: levels/periods arity mismatch";
  if List.exists (fun per -> per <= 0.0) periods then
    invalid_arg "Multilevel.waste: periods must be positive";
  waste_at p ~periods

(* Separable Young/Daly-shaped optima, exactly as in the two-level model:
   a level that serves no failures (or costs nothing) is never
   checkpointed. *)
let optimal_periods p =
  validate p;
  List.map
    (fun l ->
      if l.fraction <= 0.0 || l.cost_s <= 0.0 then infinity
      else sqrt (2.0 *. p.mtbf_s *. l.cost_s /. l.fraction))
    p.levels

let optimal_waste p = waste_at p ~periods:(optimal_periods p)

let deepest p =
  match List.rev p.levels with
  | d :: _ -> d
  | [] -> invalid_arg "Multilevel: no levels"

let single_level_waste p =
  validate p;
  let d = deepest p in
  let period = Daly.period ~ckpt_s:d.cost_s ~mtbf_s:p.mtbf_s in
  Waste.job_waste ~ckpt_s:d.cost_s ~period_s:period ~recovery_s:d.recovery_s
    ~mtbf_s:p.mtbf_s

let worthwhile p = optimal_waste p < single_level_waste p -. 1e-12
