(** The time-shared parallel file system.

    Flows (input, output, checkpoint, recovery transfers) draw from one
    aggregate bandwidth pool. Three sharing disciplines cover the paper's
    needs:
    {ul
    {- [`Linear]: the paper's linear interference model — concurrent flows
       split the aggregate bandwidth proportionally to the node count of
       their jobs. Used by the Oblivious strategies; token strategies also
       run on it, trivially, since they keep at most one flow active.}
    {- [`Degraded alpha]: the "more adversarial interference model" of the
       paper's footnote 2 — with [k] concurrent flows the aggregate
       throughput itself drops to [beta / (1 + alpha (k - 1))] before being
       split proportionally, modelling the super-linear slowdowns Luu et
       al. observed on production PFSes. [alpha = 0] degenerates to
       [`Linear].}
    {- [`Unshared]: every flow gets the full aggregate bandwidth regardless
       of concurrency — the "no interference" baseline runs.}}

    Regular transfers are credited to {!Metrics.Regular_io} at their
    nominal-rate share and to {!Metrics.Io_dilation} for the remainder;
    checkpoint and recovery flows are pure waste.

    The implementation is incremental: flow progress is tracked in virtual
    service time (under proportional sharing every rate factors as
    [weight x slope(t)] with a slope common to all flows), so a membership
    change costs O(log n) — advance the virtual clock, adjust the weight
    total, touch a min-heap of virtual completion deadlines and retime the
    {e single} calendar event that tracks the heap minimum. Ledger entries
    settle lazily, at flow completion/abort or an explicit {!sync}; ledger
    totals match the eager full-rescan reference ([test/io_reference.ml])
    within float tolerance, enforced by a differential test.

    Flow state lives in a pooled struct-of-arrays layout: a {!flow} is a
    generation-tagged immediate handle (like {!Cocheck_util.Pqueue}
    handles), so the start/complete/abort cycle reuses slots and allocates
    nothing, and a handle held past its flow's end is detected rather than
    aliasing the slot's next tenant. *)

type sharing = [ `Linear | `Degraded of float | `Unshared ]

type io_kind = Input | Output | Ckpt | Recovery | Drain
(** [Drain] marks background burst-buffer drains: they consume PFS
    bandwidth (and so interfere) but occupy no compute nodes, hence record
    no node-seconds. *)

type t

type flow [@@immediate]

val no_flow : flow
(** A handle that never designates a live flow: {!abort_flow} ignores it. *)

val create :
  engine:Cocheck_des.Engine.t ->
  metrics:Metrics.t ->
  bandwidth_gbs:float ->
  sharing:sharing ->
  t

val start_flow :
  t -> nodes:int -> kind:io_kind -> volume_gb:float -> on_complete:(unit -> unit) -> flow
(** Begin a transfer at the current simulation time. [nodes] is the
    flow's weight under proportional sharing and the node count of its
    ledger entries; [kind] picks the ledger kind. [on_complete] fires from
    an engine event when the last byte lands; a zero-volume transfer
    completes via an immediate event (still asynchronously, preserving
    event ordering). *)

val abort_flow : t -> flow -> unit
(** Settle and drop a flow without firing its completion (job killed).
    Idempotent; aborting a completed flow is a no-op. *)

val active_count : t -> int
val active_rate : t -> flow -> float option
(** Current GB/s of a live flow (after the last settle). *)

val current_rate_gbs : t -> float
(** Aggregate granted rate across all live flows right now — the
    instantaneous device utilization numerator for time-series probes.
    Equals the configured bandwidth whenever flows are active under
    [`Linear], less under [`Degraded]. *)

val bandwidth_gbs : t -> float
(** The configured aggregate bandwidth. *)

val flow_id : flow -> int
(** The handle as an integer key: unique among live flows and never reused
    for a slot's next tenant (the generation tag differs). Stable key for
    external per-flow tables (e.g. the burst buffer's in-flight index). *)

val sync : t -> unit
(** Force pending ledger entries out to {!Metrics} for every live flow, up
    to the current simulation time. Metrics settle lazily (at completion or
    abort). Idempotent at a fixed time and does not perturb flow
    schedules, but splitting a span moves the ledger's float sums in their
    last bits; a mid-run reader that must not perturb uses {!pending}. *)

val pending : t -> Metrics.t -> unit
(** Record into the given ledger the entries {!sync} would emit now —
    what live flows have accrued since they last settled — without
    settling them: the subsystem's state and its own ledger are left
    untouched, so a run that calls this is bit-identical to one that does
    not. Time-series probes add these to the subsystem's ledger totals. *)

val transferred_gb : t -> float
(** Aggregate volume actually moved so far (committed plus in-flight), for
    conservation tests and device-utilization summaries. *)
