module Json = Cocheck_obs.Json
module Manifest = Cocheck_obs.Manifest
module Platform = Cocheck_model.Platform

type request =
  | Ping
  | Stats
  | Shutdown
  | Campaign of { spec : Spec.t; progress : bool }
  | Status of { spec : Spec.t }
  | Bound of { platform : Platform.t }

type cell_summary = {
  x : float option;
  strategy : string;
  mean : float;
  median : float;
  q1 : float;
  q3 : float;
}

type response =
  | Pong
  | Bye
  | Overload of { inflight : int; limit : int }
  | Error of string
  | Progress of Runner.progress_event
  | Campaign_result of {
      elapsed_s : float;
      simulated : int;
      baselines : int;
      loaded : int;
      total_points : int;
      cells : cell_summary list;
    }
  | Status_result of { total : int; cached : int; missing : int }
  | Bound_result of {
      waste : float;
      lambda : float;
      io_fraction : float;
      outside : string option;
    }
  | Stats_result of {
      store : Store.stats;
      indexed : int;
      inflight : int;
      served : int;
    }

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

let request_to_json ~id req =
  let frame op fields = Json.Obj (("id", Json.Int id) :: ("op", Json.String op) :: fields) in
  match req with
  | Ping -> frame "ping" []
  | Stats -> frame "stats" []
  | Shutdown -> frame "shutdown" []
  | Campaign { spec; progress } ->
      frame "campaign" [ ("spec", Spec.to_json spec); ("progress", Json.Bool progress) ]
  | Status { spec } -> frame "status" [ ("spec", Spec.to_json spec) ]
  | Bound { platform } -> frame "bound" [ ("platform", Manifest.platform_to_json platform) ]

let ( let* ) = Result.bind

let member_result k j = Option.to_result ~none:("missing field: " ^ k) (Json.member k j)

let spec_of j =
  let* s = member_result "spec" j in
  Spec.of_json s

let platform_of j =
  let* p = member_result "platform" j in
  Manifest.platform_of_json p

let request_of_json j =
  let* id = Option.to_result ~none:"missing request id" (Option.bind (Json.member "id" j) Json.to_int_opt) in
  let* op = Option.to_result ~none:"missing op" (Option.bind (Json.member "op" j) Json.to_string_opt) in
  let* req =
    match op with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | "campaign" ->
        let* spec = spec_of j in
        let progress =
          Option.value ~default:false (Option.bind (Json.member "progress" j) Json.to_bool_opt)
        in
        Ok (Campaign { spec; progress })
    | "status" ->
        let* spec = spec_of j in
        Ok (Status { spec })
    | "bound" ->
        let* platform = platform_of j in
        Ok (Bound { platform })
    | op -> Result.Error ("unknown op: " ^ op)
  in
  Ok (id, req)

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let cell_to_json c =
  Json.Obj
    [
      ("x", (match c.x with None -> Json.Null | Some x -> Json.Float x));
      ("strategy", Json.String c.strategy);
      ("mean", Json.Float c.mean);
      ("median", Json.Float c.median);
      ("q1", Json.Float c.q1);
      ("q3", Json.Float c.q3);
    ]

let cell_of_json j =
  let flt k = Option.bind (Json.member k j) Json.to_float_opt in
  match (Option.bind (Json.member "strategy" j) Json.to_string_opt, flt "mean", flt "median", flt "q1", flt "q3") with
  | Some strategy, Some mean, Some median, Some q1, Some q3 ->
      Ok { x = flt "x"; strategy; mean; median; q1; q3 }
  | _ -> Result.Error "malformed cell summary"

let response_to_json ~id resp =
  let frame reply fields =
    Json.Obj (("id", Json.Int id) :: ("reply", Json.String reply) :: fields)
  in
  match resp with
  | Pong -> frame "pong" []
  | Bye -> frame "bye" []
  | Overload { inflight; limit } ->
      frame "overload" [ ("inflight_points", Json.Int inflight); ("limit", Json.Int limit) ]
  | Error msg -> frame "error" [ ("message", Json.String msg) ]
  | Progress ev -> frame "progress" [ ("event", Runner.progress_to_json ev) ]
  | Campaign_result r ->
      frame "campaign"
        [
          ("elapsed_s", Json.Float r.elapsed_s);
          ("simulated", Json.Int r.simulated);
          ("baselines", Json.Int r.baselines);
          ("loaded", Json.Int r.loaded);
          ("total", Json.Int r.total_points);
          ("cells", Json.List (List.map cell_to_json r.cells));
        ]
  | Status_result r ->
      frame "status"
        [
          ("total", Json.Int r.total);
          ("cached", Json.Int r.cached);
          ("missing", Json.Int r.missing);
        ]
  | Bound_result r ->
      frame "bound"
        ([
           ("waste", Json.Float r.waste);
           ("lambda", Json.Float r.lambda);
           ("io_fraction", Json.Float r.io_fraction);
         ]
        @ match r.outside with Some why -> [ ("outside", Json.String why) ] | None -> [])
  | Stats_result r ->
      frame "stats"
        [
          ( "store",
            Json.Obj
              [
                ("hits", Json.Int r.store.Store.hits);
                ("misses", Json.Int r.store.Store.misses);
                ("loads", Json.Int r.store.Store.loads);
                ("writes", Json.Int r.store.Store.writes);
                ("evictions", Json.Int r.store.Store.evictions);
              ] );
          ("indexed", Json.Int r.indexed);
          ("inflight_points", Json.Int r.inflight);
          ("served", Json.Int r.served);
        ]

let response_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let flt k = Option.bind (Json.member k j) Json.to_float_opt in
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let need msg = Option.to_result ~none:msg in
  let* id = need "missing response id" (int "id") in
  let* reply = need "missing reply kind" (str "reply") in
  let* resp =
    match reply with
    | "pong" -> Ok Pong
    | "bye" -> Ok Bye
    | "overload" -> (
        match (int "inflight_points", int "limit") with
        | Some inflight, Some limit -> Ok (Overload { inflight; limit })
        | _ -> Result.Error "malformed overload reply")
    | "error" -> (
        match str "message" with
        | Some msg -> Ok (Error msg)
        | None -> Result.Error "malformed error reply")
    | "progress" -> (
        match Option.bind (Json.member "event" j) Runner.progress_of_json with
        | Some ev -> Ok (Progress ev)
        | None -> Result.Error "malformed progress frame")
    | "campaign" -> (
        match
          (flt "elapsed_s", int "simulated", int "baselines", int "loaded", int "total",
           Json.member "cells" j)
        with
        | ( Some elapsed_s, Some simulated, Some baselines, Some loaded, Some total_points,
            Some (Json.List cells) ) ->
            let* cells =
              List.fold_right
                (fun c acc ->
                  let* acc = acc in
                  let* c = cell_of_json c in
                  Ok (c :: acc))
                cells (Ok [])
            in
            Ok (Campaign_result { elapsed_s; simulated; baselines; loaded; total_points; cells })
        | _ -> Result.Error "malformed campaign reply")
    | "status" -> (
        match (int "total", int "cached", int "missing") with
        | Some total, Some cached, Some missing -> Ok (Status_result { total; cached; missing })
        | _ -> Result.Error "malformed status reply")
    | "bound" -> (
        match (flt "waste", flt "lambda", flt "io_fraction") with
        | Some waste, Some lambda, Some io_fraction ->
            Ok (Bound_result { waste; lambda; io_fraction; outside = str "outside" })
        | _ -> Result.Error "malformed bound reply")
    | "stats" -> (
        match (Json.member "store" j, int "indexed", int "inflight_points", int "served") with
        | Some store, Some indexed, Some inflight, Some served ->
            let sint k = Option.value ~default:0 (Option.bind (Json.member k store) Json.to_int_opt) in
            Ok
              (Stats_result
                 {
                   store =
                     {
                       Store.hits = sint "hits";
                       misses = sint "misses";
                       loads = sint "loads";
                       writes = sint "writes";
                       evictions = sint "evictions";
                     };
                   indexed;
                   inflight;
                   served;
                 })
        | _ -> Result.Error "malformed stats reply")
    | reply -> Result.Error ("unknown reply kind: " ^ reply)
  in
  Ok (id, resp)
