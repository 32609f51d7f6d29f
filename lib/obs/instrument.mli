(** The standard simulator instrumentation: an observer of the
    {!Cocheck_sim.Trace} event stream that feeds a {!Histogram.registry}. *)

val standard : Histogram.registry -> Cocheck_sim.Trace.event -> unit
(** [Simulator.run ~observe:(standard reg)] fills four histograms (created
    in the registry on the call):
    {ul
    {- [token_wait_s] — the [wait] of every [Token_granted]}
    {- [ckpt_io_s] — each commit's [Ckpt_committed] time minus its
       instance's [Ckpt_started] time}
    {- [io_dilation_x] — the [dilation] of every [Io_done] (1.0 = no
       interference)}
    {- [lost_work_s] — the [lost_work] of every [Job_killed]}}
    plus a [kills] counter. *)
