(** The naive O(n²)-per-event flow scheduler, retained as the executable
    specification for differential testing of {!Io_subsystem}.

    Semantics are those documented in {!Io_subsystem}: same sharing
    disciplines, same settlement and metrics rules, same zero-volume and
    abort behavior. The implementation is the original full-rescan design —
    every membership change settles every flow, refolds the weight total per
    flow and rebuilds every completion event. Test-only; production code
    must use {!Io_subsystem}. *)

open Cocheck_sim

type sharing = [ `Linear | `Degraded of float | `Unshared ]
type io_kind = Input | Output | Ckpt | Recovery | Drain

val io_kind_name : io_kind -> string

type t
type flow

val create :
  engine:Cocheck_des.Engine.t ->
  metrics:Metrics.t ->
  bandwidth_gbs:float ->
  sharing:sharing ->
  t

val start_flow :
  t ->
  job:int ->
  nodes:int ->
  kind:io_kind ->
  volume_gb:float ->
  on_complete:(unit -> unit) ->
  flow

val abort_flow : t -> flow -> unit
val active_count : t -> int
val active_rate : t -> flow -> float option
val current_rate_gbs : t -> float
val bandwidth_gbs : t -> float
val remaining_gb : t -> flow -> float option
val flow_job : flow -> int
val flow_kind : flow -> io_kind
val transferred_gb : t -> float
