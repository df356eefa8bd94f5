(** Small statistics helpers for benchmark reporting. *)

val mean : float list -> float
val stddev : float list -> float
(** Sample standard deviation; 0 for fewer than two points. *)

val cv : float list -> float
(** Coefficient of variation (0 when the mean is 0); quantifies the
    red-black forest's transaction-length variance. *)

val histogram : buckets:int -> lo:float -> hi:float -> float list -> int array
(** Equal-width buckets over the closed range [[lo, hi]]; a sample
    exactly at [hi] counts in the last bucket.  Samples outside the
    range are dropped. *)

(** A flat, growable sample of floats (latencies) with exact
    percentiles.  Values sit unboxed in one [Float.Array], so a sample
    of n values costs n words and [add] allocates nothing while the
    capacity lasts.  Percentiles sort the values in place, once per
    batch of adds, without a comparison closure.  Values must not be
    [nan]. *)
module Sample : sig
  type t

  val create : int -> t
  (** An empty sample with room for that many values. *)

  val add : t -> float -> unit
  (** Append one value.  Allocates nothing unless the sample is full,
      when it doubles its capacity. *)

  val length : t -> int

  val append : into:t -> t -> unit
  (** Copy every value of the second sample into [into]. *)

  val concat : t array -> t
  (** A fresh sample holding every value of the given ones.  When every
      given sample is sorted (no [add] or [append] since its last
      percentile, or empty), their values are merged in order and the
      result is sorted: its percentiles sort nothing. *)

  val of_list : float list -> t

  val mean : t -> float
  (** Arithmetic mean; 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p], [p] in [0, 100]: the nearest-rank percentile,
      the value of rank [ceil (p/100 * n)] (clamped to [1, n]) in
      ascending order; [nan] when empty.  Sorts the values in place
      if an [add] or [append] came since the last sort. *)
end
