(** Sample statistics for Monte Carlo result aggregation.

    The paper reports candlesticks per configuration: mean, first/third
    quartiles and first/ninth deciles over at least a thousand replicated
    simulations. *)

type running
(** Welford online accumulator: mean and variance in one pass, no storage. *)

val running_create : unit -> running
val running_add : running -> float -> unit
val running_mean : running -> float
(** Mean of the values added so far; [nan] when empty. *)

val running_variance : running -> float
(** Unbiased sample variance; [nan] for fewer than two values. *)

val running_stddev : running -> float

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]], linear interpolation between order
    statistics (type-7, the R default). The array is not modified. Raises
    [Invalid_argument] on an empty array or [q] outside [\[0,1\]]. *)

type candlestick = {
  mean : float;
  d1 : float;  (** first decile *)
  q1 : float;  (** first quartile *)
  median : float;
  q3 : float;  (** third quartile *)
  d9 : float;  (** ninth decile *)
  n : int;
}
(** The five-number summary the paper draws as candlesticks, plus mean/n. *)

val candlestick : float array -> candlestick

val mean_ci : ?confidence:float -> float array -> float * float
(** [(mean, half_width)] of a normal-approximation confidence interval
    around the sample mean (default 95 %; supported confidences: 0.90,
    0.95, 0.99). Requires at least two samples. With Monte Carlo
    replication counts in the hundreds the normal approximation is
    appropriate; for tiny n it understates the width slightly. *)

type histogram = { lo : float; hi : float; counts : int array }

val histogram : bins:int -> float array -> histogram
(** Equal-width histogram over the data range. [bins > 0]; empty input gives
    zero counts over [\[0,1\]]. *)
