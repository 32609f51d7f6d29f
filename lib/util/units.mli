(** Unit conventions and conversions.

    Throughout the library: time is in {b seconds} (float), data volumes in
    {b GB} (float, decimal gigabytes as in "160 GB/s" filesystem specs),
    bandwidth in {b GB/s}, node counts are [int]. These helpers keep
    experiment definitions readable ("2 years node MTBF", "286 TB"). *)

val second : float
val minute : float
val hour : float
val day : float
val year : float
(** 365 days, the convention behind the paper's "2-year node MTBF ≈ 1 h
    system MTBF on 17 888 nodes" arithmetic. *)

val minutes : float -> float
val hours : float -> float
val days : float -> float
val years : float -> float
(** [years x] is [x] years in seconds, etc. *)

val tb : float -> float
val pb : float -> float
(** Data volumes in GB. *)

val to_hours : float -> float
val to_years : float -> float

val pp_duration : Format.formatter -> float -> unit
(** Human-readable duration ("2.5h", "3.1d", "42s"). *)

val pp_bytes : Format.formatter -> float -> unit
(** Human-readable volume from GB ("512GB", "1.4TB"). *)
