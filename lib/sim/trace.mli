(** Structured event tracing for simulations.

    The simulator's one observation stream: {!Simulator.run} hands every
    {!event} to its [?observe] callback, and [record t] is the observer
    that keeps them in a bounded in-memory ring. Used for debugging, for the
    protocol-invariant tests (a commit must follow a start, a job holds at
    most one activity, ...), and by [simctl run --events] and
    [--timeline] for eyeballing a schedule. *)

type kind =
  | Job_started of { restarts : int; nodes : int }
      (** instance allocated and beginning input *)
  | Input_done  (** initial input or recovery read finished; work begins *)
  | Ckpt_requested
  | Ckpt_started  (** commit transfer begins (PFS or burst buffer) *)
  | Ckpt_committed of { work : float }
      (** committed progress level; the commit took this event's time
          minus that of the instance's last [Ckpt_started] *)
  | Ckpt_aborted  (** a failure destroyed the commit in flight *)
  | Token_granted of { wait : float }
      (** [wait]: request-to-grant latency in seconds (checkpoint and
          blocking I/O requests alike) *)
  | Io_done of { dilation : float }
      (** a regular input or output transfer of non-zero volume finished;
          [dilation] is its actual over nominal (full-bandwidth) duration,
          1.0 = no interference *)
  | Work_completed
  | Job_completed
  | Job_killed of { lost_work : float }
  | Node_failure of { node : int }
      (** platform event; [job]/[inst] carry the victim instance running on
          the struck node, or -1/-1 when the node was idle — so
          {!for_job} correlates kills with their cause *)

type event = {
  time : float;
  job : int;  (** stable job identity (spec id); -1 when no job is involved *)
  inst : int;  (** running instance; -1 when no job is involved *)
  kind : kind;
}

type t

val create : ?capacity:int -> unit -> t
(** A ring buffer keeping the most recent [capacity] events (default
    100 000). *)

val record : t -> event -> unit
(** The ring's observer: [Simulator.run ~observe:(record t)]. *)

val events : t -> event list
(** Retained events, oldest first. *)

val length : t -> int
(** Retained event count. *)

val dropped : t -> int
(** Events evicted by the capacity bound. *)

val for_job : t -> job:int -> event list
val of_kind : t -> f:(kind -> bool) -> event list

val kind_name : kind -> string
val pp_event : Format.formatter -> event -> unit

val dump : ?limit:int -> t -> string
(** Text rendering of (up to [limit]) retained events. *)
