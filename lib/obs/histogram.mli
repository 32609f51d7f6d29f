(** Log-bucketed histograms and a named registry.

    Contention effects live in tails — token waits, commit durations,
    dilation factors span orders of magnitude — so buckets grow
    geometrically: an underflow bucket for values below [lo] (zero and
    negative values land there too), [buckets] buckets with boundaries
    [lo·ratio^i], and an overflow bucket above the top boundary. Counts and
    the value sum are exact; quantiles interpolate within a bucket. *)

type t

val create : ?lo:float -> ?ratio:float -> ?buckets:int -> name:string -> unit_label:string -> unit -> t
(** Defaults: [lo = 1.0], [ratio = 2.0], [buckets = 32] (top boundary
    [lo·2^32 ≈ 4.3e9]). Requires [lo > 0], [ratio > 1], [buckets > 0]. *)

val name : t -> string
val unit_label : t -> string

val add : t -> float -> unit
(** Non-finite values are dropped (counted in {!dropped}). *)

val count : t -> int
(** Finite values observed (underflow and overflow included). *)

val dropped : t -> int
val underflow : t -> int
val overflow : t -> int
val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
val max_value : t -> float
(** Extremes of the finite values observed; [nan] when empty. *)

val bucket_bounds : t -> i:int -> float * float
(** Boundaries of regular bucket [i] in [0, buckets): [lo·ratio^i,
    lo·ratio^(i+1)). *)

val counts : t -> int array
(** Regular bucket counts (length [buckets]); excludes under/overflow. *)

val quantile : t -> float -> float
(** Approximate quantile for q in [0,1]: linear interpolation inside the
    bucket holding the target rank; underflow resolves to the observed
    minimum, overflow to the observed maximum. [nan] when empty. *)

val quantile_summary : t -> (float * float) list
(** The standard latency quantiles [(0.5, p50); (0.95, p95); (0.99, p99)]
    — what the dashboard's summary table and alerting thresholds read. *)

val render : ?max_rows:int -> t -> string
(** ASCII bar chart of the populated buckets (up to [max_rows], default 12,
    keeping the most populated), with count, mean, p50/p95/p99 header. *)

val to_json : t -> Json.t

(** {2 Registry} — named histograms and monotone counters, in creation
    order, so the simulator's standard observer ({!Instrument}) and the
    dashboard can share one handle. *)

type registry

val registry : unit -> registry

val hist :
  registry -> ?lo:float -> ?ratio:float -> ?buckets:int -> name:string -> unit_label:string -> unit -> t
(** Find-or-create by name (creation parameters are ignored for an
    existing histogram). *)

val incr : registry -> string -> ?by:float -> unit -> unit
(** Bump a named counter (created at 0 on first use). *)

val counters : registry -> (string * float) list
val hists : registry -> t list
val registry_to_json : registry -> Json.t
