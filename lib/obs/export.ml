module Trace = Cocheck_sim.Trace

let schema = "cocheck.trace"
let version = 2

let payload_fields (kind : Trace.kind) =
  match kind with
  | Trace.Job_started { restarts; nodes } ->
      [ ("nodes", Json.Int nodes); ("restarts", Json.Int restarts) ]
  | Trace.Ckpt_committed { work } -> [ ("work", Json.Float work) ]
  | Trace.Job_killed { lost_work } -> [ ("lost_work", Json.Float lost_work) ]
  | Trace.Node_failure { node } -> [ ("node", Json.Int node) ]
  | Trace.Token_granted { wait } -> [ ("wait", Json.Float wait) ]
  | Trace.Io_done { dilation } -> [ ("dilation", Json.Float dilation) ]
  | Trace.Input_done | Trace.Ckpt_requested | Trace.Ckpt_started | Trace.Ckpt_aborted
  | Trace.Work_completed | Trace.Job_completed ->
      []

let event_to_json (e : Trace.event) =
  Json.Obj
    ([
       ("type", Json.String "event");
       ("t", Json.Float e.Trace.time);
       ("job", Json.Int e.job);
       ("inst", Json.Int e.inst);
       ("kind", Json.String (Trace.kind_name e.kind));
     ]
    @ payload_fields e.kind)

let header trace =
  Json.Obj
    [
      ("type", Json.String "header");
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ("events", Json.Int (Trace.length trace));
      ("dropped", Json.Int (Trace.dropped trace));
    ]

let write_jsonl oc trace =
  output_string oc (Json.to_string (header trace));
  output_char oc '\n';
  List.iter
    (fun e ->
      output_string oc (Json.to_string (event_to_json e));
      output_char oc '\n')
    (Trace.events trace)
