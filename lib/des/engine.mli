(** A generic discrete-event simulation engine.

    Events are callbacks scheduled at absolute simulation times; the engine
    pops them in time order, FIFO among equal times (deterministic replay).
    Handlers may schedule and cancel further events freely.

    A calendar entry names a {!source}: a callback registered once with
    {!source} for the engine's lifetime and then scheduled any number of
    times through {!schedule_src}, so the event path builds no closure and
    writes no heap pointer. Sources are the calendar's only way in. *)

type t

type handle [@@immediate]
(** An immediate (unboxed) event designator — storing one costs no
    allocation, unlike a [handle option]. *)

type source [@@immediate]
(** A registered callback's id. *)

val none : handle
(** A handle that never designates a pending event: {!pending} is [false],
    {!cancel} and {!reschedule} are no-ops returning [false]. The "no
    event armed" sentinel for mutable fields that would otherwise pay one
    [Some] allocation per armed event. *)

val is_none : handle -> bool
(** Whether the handle is {!none} (a non-{!none} handle may still have
    fired or been cancelled; {!pending} is the liveness test). *)

val create : ?start:float -> unit -> t
(** A fresh engine with clock at [start] (default 0). *)

type clock = private { mutable now : float }
(** The engine's clock cell: an all-float record, so reading [now] where
    it is consumed as a float boxes nothing, even through a call that is
    not inlined. *)

val clock : t -> clock
(** The engine's clock cell, the same for the engine's lifetime: a caller
    on the event path keeps it and reads [(clock t).now] in place of
    {!now}. *)

val now : t -> float
(** Current simulation time: the timestamp of the event being processed, or
    of the last processed one. Never decreases. *)

val source : t -> (t -> unit) -> source
(** Register a callback for the engine's lifetime. The source may be
    scheduled, cancelled and scheduled again any number of times, and may
    be pending under several handles at once. *)

val no_source : source
(** A placeholder naming no callback, for a field filled in right after
    its record is built (a source whose callback needs the record). It
    must never be scheduled. *)

val schedule_src : t -> kind:int -> time:float -> source -> handle
(** Schedule [source] at absolute [time]. Scheduling in the past (before
    {!now}) raises [Invalid_argument]. [kind] is a small integer the
    scheduler carries with the event; it only matters when
    {!attach_stats} has installed counters, which then attribute
    schedule/fire/cancel to the kind — the event loop itself ignores it. *)

val cancel : t -> handle -> bool
(** Cancel a pending event. [false] when it already fired or was cancelled;
    idempotent. *)

val reschedule : t -> handle -> time:float -> bool
(** Move a still-pending event to a new absolute [time] in O(log n) without
    the cancel + insert churn (the handle stays valid, and the event keeps
    its FIFO rank among equal times). [false] when the event already fired
    or was cancelled. Rescheduling into the past raises
    [Invalid_argument]. *)

(** {2 Ranks drawn ahead}

    An event's FIFO rank among equal times is fixed when it is scheduled.
    A caller that keeps one handle for several future events (the
    simulator's per-instance boundaries) draws each event's rank when it
    would have scheduled it, and puts the handle on the calendar under
    that rank later: equal-time events then fire exactly as if each had
    been scheduled on its own. *)

val draw_rank : t -> int
(** The rank an event scheduled now would take. Ranks increase with every
    draw and every {!schedule_src}. *)

val schedule_ranked : t -> kind:int -> time:float -> rank:int -> source -> handle
(** {!schedule_src} under a rank drawn earlier by {!draw_rank}. *)

val reschedule_ranked : t -> handle -> time:float -> rank:int -> bool
(** {!reschedule} to [time] under a new drawn [rank]: the pending event
    now fires where an event scheduled under [rank] would. [false] when
    it already fired or was cancelled. *)

val pending : t -> handle -> bool
(** Whether the event behind the handle is still scheduled. *)

val time_is : t -> handle -> time:float -> bool
(** Whether the event behind the handle is still pending at exactly
    [time]; [false] for fired or cancelled events. Allocates nothing. *)

val step : t -> bool
(** Process the next event; [false] when the calendar is empty. *)

val run : ?until:float -> t -> unit
(** Process events until the calendar empties, or until the next event lies
    strictly beyond [until] — the clock is then advanced to [until]. *)

val events_processed : t -> int
val queue_length : t -> int

(** {2 Event-churn counters}

    Opt-in telemetry for the exascale profiling work: which event kinds
    dominate scheduling, firing and cancellation. When no stats are
    attached (the default) the event loop pays exactly one [None] branch
    per operation and allocates nothing — the zero-cost-when-off pattern
    of the simulator's event observer. *)

type stats

val attach_stats :
  t ->
  kinds:string array ->
  ?tick_every:int ->
  ?on_tick:(t -> unit) ->
  unit ->
  stats
(** Install counters on the engine. [kinds] names the kind indices used by
    the [kind] argument of the schedule functions; out-of-range kinds
    fold into slot 0. [on_tick] fires inside {!step} after every
    [tick_every] processed events (default: never) — the tracing layer
    hangs periodic counter-track and GC sampling off it. Raises
    [Invalid_argument] on an empty [kinds] or non-positive [tick_every]. *)

val stats : t -> stats option
val stats_scheduled : stats -> int
val stats_fired : stats -> int
val stats_cancelled : stats -> int
val stats_rescheduled : stats -> int

val stats_by_kind : stats -> (string * int * int * int) list
(** Per kind, in [kinds] order: (name, scheduled, fired, cancelled). *)
