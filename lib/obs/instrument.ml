module Trace = Cocheck_sim.Trace

let standard reg =
  let token = Histogram.hist reg ~lo:0.1 ~name:"token_wait_s" ~unit_label:"s" () in
  let ckpt = Histogram.hist reg ~lo:1.0 ~name:"ckpt_io_s" ~unit_label:"s" () in
  let dilation =
    Histogram.hist reg ~lo:1.0 ~ratio:1.25 ~name:"io_dilation_x" ~unit_label:"x" ()
  in
  let lost = Histogram.hist reg ~lo:1.0 ~name:"lost_work_s" ~unit_label:"s" () in
  (* Start time of each instance's commit in flight: a commit's duration is
     its [Ckpt_committed] time minus its [Ckpt_started] time. *)
  let started = Hashtbl.create 64 in
  fun (e : Trace.event) ->
    match e.kind with
    | Trace.Token_granted { wait } -> Histogram.add token wait
    | Trace.Io_done { dilation = x } -> Histogram.add dilation x
    | Trace.Ckpt_started -> Hashtbl.replace started e.inst e.time
    | Trace.Ckpt_committed _ ->
        Histogram.add ckpt (e.time -. Hashtbl.find started e.inst);
        Hashtbl.remove started e.inst
    | Trace.Ckpt_aborted -> Hashtbl.remove started e.inst
    | Trace.Job_killed { lost_work } ->
        Histogram.incr reg "kills" ();
        Histogram.add lost lost_work
    | Trace.Job_started _ | Trace.Input_done | Trace.Ckpt_requested | Trace.Work_completed
    | Trace.Job_completed | Trace.Node_failure _ ->
        ()
