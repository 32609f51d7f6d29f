module Json = Cocheck_obs.Json
module Manifest = Cocheck_obs.Manifest
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Failure_trace = Cocheck_sim.Failure_trace
module Units = Cocheck_util.Units

type axis =
  | No_sweep
  | Mtbf_years of float list
  | Bandwidth_gbs of float list
  | Flush_gbs of float list
      (* sweeps the dedicated flush bandwidth of every buffer level *)

type t = {
  name : string;
  platform : Platform.t;
  classes : App_class.t list option;
  strategies : Strategy.t list;
  axis : axis;
  reps : int;
  seed : int;
  days : float;
  failure_dist : Failure_trace.distribution option;
  interference_alpha : float option;
  multilevel : Config.multilevel option;
}

(* ------------------------------------------------------------------ *)
(* Cell expansion                                                       *)
(* ------------------------------------------------------------------ *)

type cell = { x : float option; platform : Platform.t }

let cells t =
  match t.axis with
  | No_sweep -> [ { x = None; platform = t.platform } ]
  | Mtbf_years ys ->
      List.map
        (fun y -> { x = Some y; platform = Platform.with_node_mtbf t.platform (Units.years y) })
        ys
  | Bandwidth_gbs bs ->
      List.map (fun b -> { x = Some b; platform = Platform.with_bandwidth t.platform b }) bs
  | Flush_gbs fs -> List.map (fun f -> { x = Some f; platform = t.platform }) fs

let points t = List.length (cells t) * List.length t.strategies * t.reps

let with_values axis vs =
  match axis with
  | No_sweep -> No_sweep
  | Mtbf_years _ -> Mtbf_years vs
  | Bandwidth_gbs _ -> Bandwidth_gbs vs
  | Flush_gbs _ -> Flush_gbs vs

let axis_label t =
  match t.axis with
  | No_sweep -> ""
  | Mtbf_years _ -> "Node MTBF (years)"
  | Bandwidth_gbs _ -> "System Aggregated Bandwidth (GB/s)"
  | Flush_gbs _ -> "Flush Bandwidth (GB/s)"

let log_x t = match t.axis with Mtbf_years _ -> true | _ -> false

let rep_seed ~seed ~rep = seed + (1_000_003 * rep)

(* Give every buffer level of [m] a dedicated flush edge of [f] GB/s. *)
let with_flush_gbs m f =
  {
    Config.levels =
      List.map
        (function
          | Config.Buffer b -> Config.Buffer { b with Config.bl_flush_gbs = Some f }
          | l -> l)
        m.Config.levels;
  }

let config t ~cell ~strategy ~rep =
  let multilevel =
    match (t.axis, cell.x) with
    | Flush_gbs _, Some f -> Option.map (fun m -> with_flush_gbs m f) t.multilevel
    | _ -> t.multilevel
  in
  (* A spec may spell "no hierarchy" as an empty level list. *)
  let multilevel = match multilevel with Some { Config.levels = [] } -> None | m -> m in
  Config.make ~platform:cell.platform ?classes:t.classes ~strategy
    ~seed:(rep_seed ~seed:t.seed ~rep) ~days:t.days ?failure_dist:t.failure_dist
    ?interference_alpha:t.interference_alpha ?multilevel ()

let validate t =
  if t.strategies = [] then invalid_arg "Spec: empty strategy set";
  if t.reps <= 0 then invalid_arg "Spec: reps must be positive";
  if t.days <= 0.0 then invalid_arg "Spec: days must be positive";
  let check_axis what = function
    | [] -> invalid_arg (Printf.sprintf "Spec: empty %s axis" what)
    | vs ->
        if List.exists (fun v -> v <= 0.0 || not (Float.is_finite v)) vs then
          invalid_arg (Printf.sprintf "Spec: %s values must be positive" what)
  in
  (match t.axis with
  | No_sweep -> ()
  | Mtbf_years ys -> check_axis "MTBF" ys
  | Bandwidth_gbs bs -> check_axis "bandwidth" bs
  | Flush_gbs fs ->
      check_axis "flush bandwidth" fs;
      let has_buffer =
        match t.multilevel with
        | Some m ->
            List.exists
              (function Config.Buffer _ -> true | Config.Snapshot _ -> false)
              m.Config.levels
        | None -> false
      in
      if not has_buffer then
        invalid_arg "Spec: flush-bandwidth axis needs a multilevel buffer level");
  (* The knobs are checked by the rules that will run them: every cell's
     configuration is built once. *)
  List.iter
    (fun cell -> ignore (config t ~cell ~strategy:(List.hd t.strategies) ~rep:0))
    (cells t)

let make ?(name = "campaign") ~platform ?classes ~strategies ?(axis = No_sweep) ~reps ~seed
    ~days ?failure_dist ?interference_alpha ?multilevel () =
  let t =
    {
      name;
      platform;
      classes;
      strategies;
      axis;
      reps;
      seed;
      days;
      failure_dist;
      interference_alpha;
      multilevel;
    }
  in
  validate t;
  t

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let schema = "cocheck.campaign"
let version = 1

(* Strategies are encoded structurally, not by display name: Strategy.name
   prints Fixed periods through %g, which is lossy for arbitrary floats,
   and the spec must round-trip exactly. *)
let rule_to_json = function
  | Strategy.Daly -> Json.String "daly"
  | Strategy.Optimal -> Json.String "optimal"
  | Strategy.Fixed period_s -> Json.Obj [ ("fixed_s", Json.Float period_s) ]

let strategy_to_json = function
  | Strategy.Oblivious r -> Json.Obj [ ("oblivious", rule_to_json r) ]
  | Strategy.Ordered r -> Json.Obj [ ("ordered", rule_to_json r) ]
  | Strategy.Ordered_nb r -> Json.Obj [ ("ordered_nb", rule_to_json r) ]
  | Strategy.Least_waste -> Json.String "least-waste"
  | Strategy.Greedy_exposure -> Json.String "greedy-exposure"
  | Strategy.Baseline -> Json.String "baseline"

let ( let* ) r f = Result.bind r f

let rule_of_json = function
  | Json.String "daly" -> Ok Strategy.Daly
  | Json.String "optimal" -> Ok Strategy.Optimal
  | Json.Obj _ as j -> (
      match Option.bind (Json.member "fixed_s" j) Json.to_float_opt with
      | Some p -> Ok (Strategy.Fixed p)
      | None -> Error "spec: bad period rule object")
  | _ -> Error "spec: bad period rule"

let strategy_of_json = function
  | Json.String s -> Strategy.of_string s
  | Json.Obj [ (kind, rule) ] -> (
      let* r = rule_of_json rule in
      match kind with
      | "oblivious" -> Ok (Strategy.Oblivious r)
      | "ordered" -> Ok (Strategy.Ordered r)
      | "ordered_nb" -> Ok (Strategy.Ordered_nb r)
      | other -> Error (Printf.sprintf "spec: unknown strategy kind %S" other))
  | _ -> Error "spec: bad strategy encoding"

let axis_to_json = function
  | No_sweep -> Json.Obj [ ("sweep", Json.String "none") ]
  | Mtbf_years ys ->
      Json.Obj
        [
          ("sweep", Json.String "mtbf_years");
          ("values", Json.List (List.map (fun v -> Json.Float v) ys));
        ]
  | Bandwidth_gbs bs ->
      Json.Obj
        [
          ("sweep", Json.String "bandwidth_gbs");
          ("values", Json.List (List.map (fun v -> Json.Float v) bs));
        ]
  | Flush_gbs fs ->
      Json.Obj
        [
          ("sweep", Json.String "flush_gbs");
          ("values", Json.List (List.map (fun v -> Json.Float v) fs));
        ]

let axis_of_json j =
  let values () =
    match Option.bind (Json.member "values" j) Json.to_list_opt with
    | None -> Error "spec: axis has no values"
    | Some vs ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | v :: rest -> (
              match Json.to_float_opt v with
              | Some f -> go (f :: acc) rest
              | None -> Error "spec: non-numeric axis value")
        in
        go [] vs
  in
  match Option.bind (Json.member "sweep" j) Json.to_string_opt with
  | Some "none" -> Ok No_sweep
  | Some "mtbf_years" ->
      let* vs = values () in
      Ok (Mtbf_years vs)
  | Some "bandwidth_gbs" ->
      let* vs = values () in
      Ok (Bandwidth_gbs vs)
  | Some "flush_gbs" ->
      let* vs = values () in
      Ok (Flush_gbs vs)
  | Some other -> Error (Printf.sprintf "spec: unknown sweep kind %S" other)
  | None -> Error "spec: axis has no sweep kind"

let to_json t =
  let optional name = function None -> [] | Some j -> [ (name, j) ] in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("version", Json.Int version);
       ("name", Json.String t.name);
       ("platform", Manifest.platform_to_json t.platform);
     ]
    @ optional "classes"
        (Option.map
           (fun cs -> Json.List (List.map Manifest.app_class_to_json cs))
           t.classes)
    @ [
        ("strategies", Json.List (List.map strategy_to_json t.strategies));
        ("axis", axis_to_json t.axis);
        ("reps", Json.Int t.reps);
        ("seed", Json.Int t.seed);
        ("days", Json.Float t.days);
      ]
    @ optional "failure_dist" (Option.map Manifest.failure_dist_to_json t.failure_dist)
    @ optional "interference_alpha"
        (Option.map (fun a -> Json.Float a) t.interference_alpha)
    @ optional "multilevel" (Option.map Manifest.multilevel_to_json t.multilevel))

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "spec: missing or invalid field %S" name)

let optional_member name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some sub ->
      let* v = conv sub in
      Ok (Some v)

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* v = f x in
      let* vs = collect f rest in
      Ok (v :: vs)

(* The top-level members {!to_json} writes. Any other member is refused:
   a misspelled knob ("interference_alfa") would otherwise run the
   default silently. *)
let members =
  [
    "schema"; "version"; "name"; "platform"; "classes"; "strategies"; "axis"; "reps";
    "seed"; "days"; "failure_dist"; "interference_alpha"; "multilevel";
  ]

let check_members = function
  | Json.Obj fields -> (
      match List.find_opt (fun (k, _) -> not (List.mem k members)) fields with
      | None -> Ok ()
      | Some ("burst_buffer", _) ->
          Error
            "spec: \"burst_buffer\" is no longer a spec field; write it as a buffer \
             level under multilevel"
      | Some (k, _) -> Error (Printf.sprintf "spec: unknown member %S" k))
  | _ -> Ok ()

let of_json j =
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_string_opt with
    | Some s when s = schema -> Ok ()
    | Some other -> Error (Printf.sprintf "spec: unexpected schema %S" other)
    | None -> Error "spec: no schema field"
  in
  let* () = check_members j in
  let* name = field "name" Json.to_string_opt j in
  let* platform = field "platform" (fun p -> Some p) j in
  let* platform = Manifest.platform_of_json platform in
  let* classes =
    optional_member "classes"
      (fun cj ->
        match Json.to_list_opt cj with
        | Some l -> collect Manifest.app_class_of_json l
        | None -> Error "spec: classes is not a list")
      j
  in
  let* strategy_list = field "strategies" Json.to_list_opt j in
  let* strategies = collect strategy_of_json strategy_list in
  let* axis = field "axis" (fun a -> Some a) j in
  let* axis = axis_of_json axis in
  let* reps = field "reps" Json.to_int_opt j in
  let* seed = field "seed" Json.to_int_opt j in
  let* days = field "days" Json.to_float_opt j in
  let* failure_dist = optional_member "failure_dist" Manifest.failure_dist_of_json j in
  let* interference_alpha =
    optional_member "interference_alpha"
      (fun a ->
        match Json.to_float_opt a with
        | Some f -> Ok f
        | None -> Error "spec: bad interference_alpha")
      j
  in
  let* multilevel = optional_member "multilevel" Manifest.multilevel_of_json j in
  let t =
    {
      name;
      platform;
      classes;
      strategies;
      axis;
      reps;
      seed;
      days;
      failure_dist;
      interference_alpha;
      multilevel;
    }
  in
  match validate t with () -> Ok t | exception Invalid_argument e -> Error e

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string_pretty (to_json t)))

(* A run manifest is read through the one-cell spec it carries. *)
let load ~path =
  let* j = Manifest.load ~path in
  match Option.bind (Json.member "schema" j) Json.to_string_opt with
  | Some s when s = Manifest.schema -> (
      match Json.member "spec" j with
      | Some spec -> of_json spec
      | None -> Error "spec: the manifest has no \"spec\" section")
  | _ -> of_json j

(* ------------------------------------------------------------------ *)
(* Digests                                                              *)
(* ------------------------------------------------------------------ *)

let hex_digest json = Digest.to_hex (Digest.string (Json.to_string json))

let digest t = hex_digest (to_json t)

(* The key is derived from the exact Config.t of the point — the complete
   set of result-determining fields — plus the structural strategy
   encoding (Config serializes the strategy by display name, which
   collapses nearby Fixed periods). *)
let cell_key t ~cell ~strategy ~rep =
  hex_digest
    (Json.Obj
       [
         ("schema", Json.String "cocheck.cell/1");
         ("config", Manifest.config_to_json (config t ~cell ~strategy ~rep));
         ("strategy", strategy_to_json strategy);
       ])
