(** Small descriptive-statistics helpers for experiment reporting. *)

val mean : float array -> float
(** Arithmetic mean; 0. on the empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0. on arrays shorter than 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation
    between order statistics. Requires a non-empty array. *)

val percentile_buckets :
  upper:float array -> counts:int array -> float -> float option
(** Percentile estimate over bucketed observations, the histogram
    counterpart of {!percentile}: [upper] holds ascending bucket upper
    bounds and [counts] one count per bound plus a final overflow
    count. Targets the same interpolated rank [p/100 * (n - 1)] as
    {!percentile} and interpolates linearly within the covering bucket
    (the first bucket's lower edge is 0 — registries record
    non-negative quantities). Returns [None] when there are no
    observations or the rank falls in the unbounded overflow bucket. *)

val minimum : float array -> float
(** Smallest value. Requires a non-empty array. *)

val maximum : float array -> float
(** Largest value. Requires a non-empty array. *)

val sum : float array -> float
(** Kahan-compensated sum. *)
