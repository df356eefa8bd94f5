(** Shared workload distribution samplers: the one Zipf(θ) and Poisson
    implementation drawn on by both the simulator scenarios and the
    service-layer load generator, deterministic in the
    {!Tcm_stm.Splitmix} stream passed to each draw. *)

module Rng = Tcm_stm.Splitmix

module Zipf : sig
  type t
  (** Precomputed Zipf(θ) sampler over items [0 .. n-1]; item 0 is the
      hottest (frequency ∝ 1/(rank+1)^θ).  Gray et al. / YCSB
      generator: O(n) setup, O(1) expected time per draw, no
      allocation per draw. *)

  val create : n:int -> theta:float -> t
  (** θ in [0, 1): 0 is uniform, 0.99 extremely skewed.  For θ > 0
      [create] tabulates the generator's key boundaries, in O(n) time
      and about 5n words; θ = 0 builds no table.
      @raise Invalid_argument on [n < 1] or θ outside [0, 1). *)

  val draw : t -> Rng.t -> int
  (** θ = 0: [Rng.int rng n].  θ > 0: [key_of_bits t (Rng.bits53 rng)].
      Either way the draw consumes one output of the stream. *)

  val key_of_bits : t -> int -> int
  (** [key_of_bits t b], [b] in [\[0, 2^53)] (θ > 0): the key the Gray
      formula gives for [u = b / 2^53],
      [n * (eta u - eta + 1)^(1/(1-θ))] truncated and clamped, after its
      two head branches.

      {b Exactness.}  The result equals the formula's for every [b],
      under one assumption about the platform: that [**] is monotone in
      its first argument to within a relative 2^-50 (libm's [pow] errs
      by less than one ulp, 2^-52).  The two head branches are exact:
      their ends are found by bisection on a product that is monotone
      in [b].  Past them the bits fall into one table interval per
      key.  A [b] within {!margin} of an interval's ends evaluates the
      formula itself.  For any other [b], [create] has checked at the
      interval's first and last such point that the formula's value
      before truncation clears the interval's key bounds by a relative
      2^-40.  Every other step of that value is a correctly rounded,
      and so monotone, operation, which carries the check to every
      point between.  [create] doubles the margin until every interval
      passes.
      @raise Invalid_argument when [b] is outside [\[0, 2^53)]. *)

  val boundaries : t -> int array
  (** Ascending: the end of the key-0 head branch, the end of the key-1
      head branch (where the first interval starts), the start of each
      later interval, and 2^53.  For tests. *)

  val margin : t -> int
  (** How close to an interval's ends a draw evaluates the formula.
      For tests. *)

  val n : t -> int
  val theta : t -> float
end

module Schedule : sig
  type on_off = {
    base_rate : float;
    burst_rate : float;
    period_s : float;  (** One on+off cycle. *)
    burst_frac : float;  (** Fraction of the period at [burst_rate]. *)
  }
  (** An on/off-modulated rate: [burst_rate] for the first [burst_frac]
      of every [period_s], [base_rate] for the rest.  All fields are
      floats, so the record stores them unboxed. *)

  val arrivals : ?on_off:on_off -> Rng.t -> peak:float -> horizon:float -> float array
  (** Arrival times (strictly increasing, in [0, horizon)) of a
      non-homogeneous Poisson process with the [on_off] rate,
      materialized ahead of time by thinning against [peak] (an upper
      bound on that rate) — the allocation-free-at-fire-time form of
      the open-loop generator's draw.  Without [on_off] the process is
      homogeneous at [peak].  Either way nothing but the result is
      allocated, and the rng stream is the same.
      @raise Invalid_argument on non-positive [peak] or [horizon]. *)
end

val exp_draw : Rng.t -> rate:float -> float
(** Exponential inter-arrival gap of a Poisson process with [rate]
    events per unit time.  @raise Invalid_argument on [rate <= 0]. *)

val pick_weighted : Rng.t -> weights:float array -> int
(** Index drawn proportionally to [weights]; zero-weight indices are
    never returned.  Consumes one {!Rng.float} and allocates nothing.
    @raise Invalid_argument when no weight is positive. *)
