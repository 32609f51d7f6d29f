(** The original standalone burst-buffer tier, kept as a test-side oracle
    for a single {!Cocheck_sim.Config.Buffer} level of
    {!Cocheck_sim.Ckpt_hierarchy} (the simulator desugars the paper's
    Section 8 burst buffer into exactly that level, see
    {!Cocheck_sim.Config.with_burst_buffer}). The storage-level
    differential in [test_hierarchy.ml] drives random write/abort/advance
    histories through both and compares their capacity and drain
    accounting after every step.

    Model: a fast absorbing tier of limited capacity. Checkpoints whose
    size fits in the free capacity commit at burst-buffer speed (its own
    bandwidth pool, linear sharing among concurrent writers) and then
    {e drain} to the PFS in the background, one at a time, as
    {!Io_subsystem.Drain} flows that contend with foreground PFS traffic
    but hold no compute nodes. Capacity is reserved when a write starts
    and released when its drain completes. A job whose newest committed
    checkpoint is still in the buffer recovers at burst-buffer speed;
    otherwise it recovers from the PFS. This recovery rule is where the
    oracle deliberately differs from the hierarchy, which reads from the
    PFS once a newer checkpoint has committed there. *)

open Cocheck_sim

type spec = Config.burst_buffer = { capacity_gb : float; bandwidth_gbs : float }

val spec_validate : spec -> unit

type t

val create :
  engine:Cocheck_des.Engine.t ->
  metrics:Metrics.t ->
  pfs:Io_subsystem.t ->
  spec ->
  t

val fits : t -> volume_gb:float -> bool
(** Whether a write of this size can be absorbed right now. *)

val write :
  t ->
  owner:int ->
  nodes:int ->
  volume_gb:float ->
  on_complete:(unit -> unit) ->
  Io_subsystem.flow option
(** Start a checkpoint write into the buffer. [owner] is the stable job
    identity (survives restarts — the spec id). Reserves capacity immediately. [None] when the volume does not fit
    ({!fits}): the spill is counted here ({!writes_spilled}) and the caller
    falls back to its PFS path. On completion the checkpoint becomes the
    owner's newest resident copy and a background drain is queued. *)

val abort_write : t -> Io_subsystem.flow -> unit
(** Cancel an in-flight write (job killed): the transfer stops, the
    reservation is released, nothing becomes resident. No-op on flows this
    buffer does not know. *)

val resident_for : t -> owner:int -> bool
(** Whether the owner's newest committed checkpoint is still in the buffer
    (resident or draining), i.e. recovery can read at buffer speed. *)

val read :
  t ->
  owner:int ->
  nodes:int ->
  volume_gb:float ->
  on_complete:(unit -> unit) ->
  Io_subsystem.flow
(** Recovery read at buffer speed. Requires {!resident_for}. *)

val io : t -> Io_subsystem.t
(** The buffer's internal bandwidth pool (for aborting its flows). *)

val used_gb : t -> float
val free_gb : t -> float
val drains_pending : t -> int
val writes_absorbed : t -> int

val writes_spilled : t -> int
(** Writes that bypassed the buffer because they did not fit (counted by
    {!write} returning [None]). *)
