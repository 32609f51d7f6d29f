(** Ring-buffered multi-column time series.

    The simulator's periodic probe pushes one row per Δt — bandwidth
    utilization, token-queue depth, jobs per state, cumulative waste — into
    a bounded ring; the ring renders as CSV (one column per field) or as
    sparklines. *)

type t

val create : ?capacity:int -> fields:string list -> unit -> t
(** Default [capacity = 100_000]. Requires a non-empty field list and a
    positive capacity. *)

val fields : t -> string list

val push : t -> time:float -> float array -> unit
(** Append a row. Raises [Invalid_argument] on arity mismatch. When
    full, the oldest retained row is evicted (counted in {!dropped}). *)

val length : t -> int
val dropped : t -> int
(** Rows evicted by the capacity bound. *)

val rows : t -> (float * float array) list
(** Retained rows, oldest first. *)

val column : t -> field:string -> (float * float) list
(** One field as (time, value) pairs. Raises on unknown field. *)

val to_csv : t -> string
(** Header [time,<field>...], one line per retained row. *)

val sparkline : t -> field:string -> width:int -> string
(** The field resampled to [width] cells of a Unicode block-glyph strip
    (min→max auto-scale); empty series yields a blank strip. *)
