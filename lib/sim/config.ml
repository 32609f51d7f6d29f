open Cocheck_model

type t = {
  platform : Platform.t;
  classes : App_class.t list;
  strategy : Cocheck_core.Strategy.t;
  seed : int;
  min_duration_s : float;
  seg_start : float;
  seg_end : float;
  horizon : float;
  fill_factor : float;
  with_failures : bool;
  failure_dist : Failure_trace.distribution;
  interference_alpha : float;
  multilevel : multilevel option;
}

and multilevel = { levels : level list }

and level = Snapshot of snapshot_level | Buffer of buffer_level

and snapshot_level = {
  sl_period_s : float;
  sl_cost_s : float;
  sl_recovery_s : float;
  sl_survival : float;
}

and buffer_level = {
  bl_capacity_gb : float;
  bl_bandwidth_gbs : float;
  bl_flush_gbs : float option;
  bl_survival : float;
}

type burst_buffer = { capacity_gb : float; bandwidth_gbs : float }

let local_level ~period_s ~cost_s ~recovery_s ~soft_fraction =
  {
    levels =
      [
        Snapshot
          {
            sl_period_s = period_s;
            sl_cost_s = cost_s;
            sl_recovery_s = recovery_s;
            sl_survival = soft_fraction;
          };
      ];
  }

let validate_multilevel m =
  if m.levels = [] then invalid_arg "Config: multilevel with no levels";
  let seen_buffer = ref false in
  List.iter
    (function
      | Snapshot s ->
          if !seen_buffer then
            invalid_arg "Config: snapshot levels must precede buffer levels";
          if s.sl_period_s <= 0.0 then
            invalid_arg "Config: local period must be positive";
          Cocheck_core.Multilevel.validate_level ~what:"Config" ~cost_s:s.sl_cost_s
            ~recovery_s:s.sl_recovery_s ~fraction:s.sl_survival
      | Buffer b ->
          seen_buffer := true;
          if b.bl_capacity_gb <= 0.0 then
            invalid_arg "Config: buffer level capacity must be positive";
          if b.bl_bandwidth_gbs <= 0.0 then
            invalid_arg "Config: buffer level bandwidth must be positive";
          (match b.bl_flush_gbs with
          | Some f when f <= 0.0 ->
              invalid_arg "Config: flush bandwidth must be positive"
          | _ -> ());
          if b.bl_survival < 0.0 || b.bl_survival > 1.0 then
            invalid_arg "Config: buffer survival outside [0, 1]")
    m.levels

let validate t =
  if t.classes = [] then invalid_arg "Config: no application classes";
  if t.seg_start < 0.0 || t.seg_start > t.seg_end then invalid_arg "Config: bad segment";
  if t.horizon < t.seg_end then invalid_arg "Config: horizon before segment end";
  if t.min_duration_s <= 0.0 then invalid_arg "Config: non-positive duration";
  if t.fill_factor < 1.0 then invalid_arg "Config: fill factor below 1";
  if t.interference_alpha < 0.0 then invalid_arg "Config: negative interference alpha";
  Option.iter validate_multilevel t.multilevel

let with_burst_buffer bb multilevel =
  if bb.capacity_gb <= 0.0 then invalid_arg "Config: burst-buffer capacity must be positive";
  if bb.bandwidth_gbs <= 0.0 then invalid_arg "Config: burst-buffer bandwidth must be positive";
  let levels = match multilevel with Some m -> m.levels | None -> [] in
  if List.exists (function Buffer _ -> true | Snapshot _ -> false) levels then
    invalid_arg "Config: a burst buffer cannot join existing buffer levels";
  {
    levels =
      levels
      @ [
          Buffer
            {
              bl_capacity_gb = bb.capacity_gb;
              bl_bandwidth_gbs = bb.bandwidth_gbs;
              bl_flush_gbs = None;
              bl_survival = 1.0;
            };
        ];
  }

let make ~platform ?classes ~strategy ?(seed = 42) ?(days = 60.0) ?(fill_factor = 1.15)
    ?(with_failures = true) ?(failure_dist = Failure_trace.Exponential)
    ?(interference_alpha = 0.0) ?multilevel () =
  let day = Cocheck_util.Units.day in
  let classes =
    match classes with Some cs -> cs | None -> Apex.default_workload platform
  in
  let with_failures =
    match strategy with Cocheck_core.Strategy.Baseline -> false | _ -> with_failures
  in
  let t =
    {
      platform;
      classes;
      strategy;
      seed;
      min_duration_s = (days +. 2.0) *. day;
      seg_start = 1.0 *. day;
      seg_end = (days +. 1.0) *. day;
      horizon = (days +. 2.0) *. day;
      fill_factor;
      with_failures;
      failure_dist;
      interference_alpha;
      multilevel;
    }
  in
  validate t;
  t

let baseline_of t =
  { t with strategy = Cocheck_core.Strategy.Baseline; with_failures = false }
