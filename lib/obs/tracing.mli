(** Nested span tracing with a Chrome [trace_event] / Perfetto exporter.

    A {!t} is a mutex-protected event buffer (safe to record into from any
    domain) with a wall-clock origin; {!Span.event}s carry microsecond
    timestamps relative to it. The {!disabled} sentinel makes tracing free
    when off: every entry point checks physical equality first, so
    instrumented code can call unconditionally — the same pattern as
    [Pool.no_telemetry] (and as the simulator's absent [?observe]).

    Load an exported file in {{:https://ui.perfetto.dev}ui.perfetto.dev}
    or [chrome://tracing]. *)

type t

val disabled : t
(** The off sentinel: recording is a no-op, {!span} calls its thunk
    directly, wiring helpers return their own no-op sentinels. *)

val create : ?capacity:int -> unit -> t
(** A live tracer holding up to [capacity] events (default 4 million);
    further events are counted in {!dropped} rather than recorded. The
    origin timestamp is taken at creation. *)

val is_enabled : t -> bool
(** [t != disabled]. *)

val now_us : t -> float
(** Microseconds of wall clock since the tracer's origin, clamped
    non-negative (monotonic capture: spans can never extend before the
    origin, and durations are clamped at 0). *)

val domain_track : unit -> int
(** The calling domain's id — the default track for spans and instants, so
    concurrent work separates into one lane per domain. *)

(** {2 Recording} *)

val record : t -> Span.event -> unit
(** Append a pre-built event (drops when the buffer is full). *)

type token
(** An open span: name, category, track and start time. Immutable; closing
    twice records two slices — don't. *)

val null_token : token
(** What {!begin_span} returns when tracing is off; {!end_span} ignores
    it. *)

val begin_span : t -> ?cat:string -> ?track:int -> string -> token
(** Open a span at the current time on [track] (default: the calling
    domain's). Use the {!span} wrapper instead whenever the extent is a
    function call. *)

val end_span : t -> ?args:(string * Span.arg) list -> token -> unit
(** Close the span, recording a {!Span.Slice} of the elapsed time. *)

val span :
  t ->
  ?cat:string ->
  ?track:int ->
  ?args:(string * Span.arg) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t name f] runs [f] inside a span. When [f] raises, the slice is
    still recorded — tagged with an ["exception"] arg — and the exception
    rethrown. Nested calls on one track yield properly nested slices
    (strictly contained intervals), which the renderer stacks. When [t] is
    {!disabled} this is exactly [f ()]. *)

val instant : t -> ?cat:string -> ?track:int -> ?args:(string * Span.arg) list -> string -> unit
(** A point event at the current time. *)

val counter : t -> string -> (string * float) list -> unit
(** One sample of a counter track: [counter t "gc" [("minor_words", v)]].
    Series with the same track name stack in one lane. *)

val name_track : t -> track:int -> string -> unit
(** Label a lane (e.g. worker index → ["worker-0"]). *)

(** {2 Reading back} *)

val events : t -> Span.event list
(** Recorded events in recording order. *)

val length : t -> int
val dropped : t -> int

val to_json : ?process_name:string -> t -> Json.t
(** The Perfetto-loadable document: events stably sorted by timestamp
    (recording order breaks ties) under a ["traceEvents"] array. *)

val write : path:string -> ?process_name:string -> t -> unit
(** {!to_json} to a file, compact encoding. *)

(** {2 Wiring} *)

val instrument_engine :
  t ->
  ?prefix:string ->
  ?every:int ->
  kinds:string array ->
  Cocheck_des.Engine.t ->
  unit ->
  unit
(** Attach {!Cocheck_des.Engine.attach_stats} to the engine with the given
    kind names (pass [Cocheck_sim.Ev_kind.names]) and a tick hook that,
    every [every] processed events (default 5000), emits counter tracks:
    [prefix/fired] (per-kind cumulative fires), [prefix/cancelled],
    [prefix/queue] (calendar length) and [prefix/gc] ({!Runtime.gc_sample}
    deltas). Returns a {e flush}: call it once after the run drains to emit
    one final sample (runs shorter than [every] events would otherwise
    leave no counter points at all).
    No-op (and no-op flush) on a disabled tracer, leaving the engine's
    hot path stat-free. Designed as a [Simulator.run ?on_engine]
    argument. *)

val pool_telemetry : t -> Cocheck_parallel.Pool.telemetry
(** Telemetry hooks rendering each worker as a lane of [task] / [idle]
    slices (track = worker index; idle gaps under 100 µs are elided; each
    task slice carries its queue wait as a [queued_s] arg) and a
    [pool/throughput] counter of completed tasks. Returns
    [Pool.no_telemetry] when the tracer is disabled, so the pool keeps its
    unobserved fast path. *)
