(** Structured export of {!Cocheck_sim.Trace} event logs.

    JSONL: one JSON object per line. The first line is a header record
    [{"type":"header","schema":"cocheck.trace","version":2,"events":N,
    "dropped":D}]; every following line is an event record
    [{"type":"event","t":<s>,"job":<id>,"inst":<id>,"kind":"<kind-name>",
    ...}] where the extra fields depend on the kind ([nodes]/[restarts] for
    job-started, [work] for ckpt-committed, [wait] for token-granted,
    [dilation] for io-done, [lost_work] for job-killed, [node] for
    node-failure). [job]/[inst] are [-1] when no job is involved (a node
    failure striking an idle node). Version 2 added [wait] and the
    io-done events. *)

val schema : string
val version : int

val event_to_json : Cocheck_sim.Trace.event -> Json.t

val write_jsonl : out_channel -> Cocheck_sim.Trace.t -> unit
(** Streams line by line without materializing the whole log. *)
