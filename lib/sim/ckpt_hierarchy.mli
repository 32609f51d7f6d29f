(** An L-level checkpoint storage hierarchy (VELOC-style): the simulator's
    one checkpoint-storage engine, covering any chain of buffer tiers above
    the PFS. The paper's Section 8 burst buffer is one level of it
    ({!Config.with_burst_buffer}).

    Each {!Config.buffer_level} owns an absorb {!Io_subsystem} (jobs write
    and recover at [bl_bandwidth_gbs], linear sharing) of limited capacity.
    A committed copy then {e flushes} one tier deeper in the background:
    {ul
    {- [bl_flush_gbs = None] — serialized drains, one per level at a time,
       as {!Io_subsystem.Drain} flows {e inside the destination tier's}
       subsystem (the PFS below the deepest level), contending with its
       foreground traffic. This is the burst-buffer discipline; its
       capacity and drain accounting is differentially tested against the
       standalone oracle in [test/burst_buffer.ml].}
    {- [bl_flush_gbs = Some b] — the level gets a dedicated [b] GB/s flush
       edge; every queued copy with room downstream flushes immediately,
       concurrent flushes contending as ordinary weighted flows.}}

    Capacity is reserved at write (or flush-in) start and released when the
    copy flushes out, is destroyed, or its write aborts — [used_gb] can
    never exceed the tier capacity (property-tested). Failures destroy the
    owner's copies at every level whose [bl_survival] the failure's
    uniform draw exceeds; recovery reads from the level holding the newest
    surviving copy, the PFS when it holds something newer still. Writes
    that fit nowhere count as spills here (the caller falls back to the
    strategy's PFS path). *)

type t

val create :
  engine:Cocheck_des.Engine.t ->
  metrics:Metrics.t ->
  pfs:Io_subsystem.t ->
  Config.buffer_level list ->
  t
(** Levels shallow → deep. Raises [Invalid_argument] on an empty list. *)

val fits : t -> volume_gb:float -> bool
(** Whether some level can absorb a write of this size right now. *)

val write :
  t ->
  owner:int ->
  inst:int ->
  nodes:int ->
  volume_gb:float ->
  content:float ->
  at:float ->
  on_complete:(unit -> unit) ->
  (Io_subsystem.t * Io_subsystem.flow) option
(** Start a checkpoint write into the shallowest level with room; returns
    the level's subsystem and the write flow, or [None] (spill counted
    here) when nothing fits. [owner] is the stable job identity, [inst] the
    running instance; [content]/[at] describe what the checkpoint captures,
    for post-failure recovery decisions. On completion the copy becomes a
    live recovery source and its background flush is queued. *)

val abort_write : t -> pool:Io_subsystem.t -> Io_subsystem.flow -> unit
(** Cancel an in-flight write (job killed): transfer stops, reservation
    released, nothing becomes resident. No-op on unknown flows. *)

val apply_failure : t -> owner:int -> u:float -> unit
(** Destroy the owner's live copies at every level with
    [u >= bl_survival] (in-flight flushes aborted, both reservations
    released). [u] is the failure's uniform severity draw — the same draw
    that picks the surviving snapshot level. *)

val recovery_source : t -> owner:int -> int option
(** The level holding the owner's newest live copy (ties resolve to the
    shallowest = fastest level), or [None] when the PFS holds something at
    least as new (or nothing survives) and recovery must go through the
    strategy's PFS path. *)

val has_any_copy : t -> owner:int -> bool
(** Whether any checkpoint of this owner survives anywhere — in a live
    hierarchy copy or already flushed to the PFS. *)

val surviving_content : t -> owner:int -> inst:int -> float
(** The most work any surviving copy captured {e for this instance}
    (copies of earlier instances count 0 in the current frame). *)

val note_pfs_commit : t -> owner:int -> inst:int -> content:float -> at:float -> unit
(** Record a checkpoint that committed directly to the PFS through the
    strategy path, so [recovery_source]/[surviving_content] weigh it
    against hierarchy copies. Flushes reaching the PFS record themselves. *)

val read :
  t ->
  nodes:int ->
  volume_gb:float ->
  level:int ->
  on_complete:(unit -> unit) ->
  Io_subsystem.t * Io_subsystem.flow
(** Recovery read at [level]'s absorb speed ([level] from
    {!recovery_source}). *)

val owns_pool : t -> Io_subsystem.t -> bool
(** Whether this subsystem is one of the hierarchy's absorb pools (used to
    route flow aborts). *)

val iter_pools : t -> (Io_subsystem.t -> unit) -> unit
(** Visit every absorb pool and flush edge (ledger syncs, probes). *)

val used_gb : t -> level:int -> float
val capacity_gb : t -> level:int -> float
val drains_pending : t -> int
(** Copies queued for or undergoing a flush, across all levels. *)

val writes_absorbed : t -> int
val writes_spilled : t -> int

val flushes_started : t -> int
(** Drains begun out of any level (a failure may abort one in flight). *)

val flushes_completed : t -> int
(** Drains that landed one tier deeper (or on the PFS). *)
