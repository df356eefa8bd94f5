(** Shared workload distribution samplers.

    One implementation of each skew/arrival distribution, drawn from a
    deterministic {!Tcm_stm.Splitmix} stream, shared by the simulator's
    scenario generators and the service-layer load generator — so "sim
    under Zipf(θ)" and "live service under Zipf(θ)" mean the same
    distribution, and every experiment reproduces from its seed. *)

module Rng = Tcm_stm.Splitmix

let two53 = 9007199254740992.0

module Zipf = struct
  (* The Gray et al. generator ("Quickly generating billion-record
     synthetic databases", SIGMOD '94), as popularized by YCSB:
     constant-time draws after an O(n) harmonic-sum precomputation,
     item 0 the hottest.  θ = 0 degenerates to uniform; θ → 1
     approaches the classic 1/rank law.

     A draw is a function of the 53 random bits [b] that {!Rng.float}
     would scale to [u = b / 2^53].  The formula below is the
     reference; [create] tabulates it so that a draw costs an array
     load instead of a [**]:

     - [b < b0] is the formula's [uz < 1] branch (key 0) and
       [b0 <= b < b1] its [uz < 1 + 0.5^θ] branch.  [uz = u * zetan] is
       a correctly rounded product, so it is monotone in [b], and
       [b0], [b1] are found exactly by bisection.
     - From [b1] on, [bounds] cuts the bits into intervals, interval
       [j] standing for key [k0 + j]; each cut comes from the
       formula's analytic inverse.
     - A [b] within [margin] of a cut evaluates the formula itself.
       Elsewhere the interval's key is the formula's, which [verified]
       proves: at the first and last interior point of every
       interval, the formula's value before truncation clears the
       interval's key bounds by a relative 2^-40.  Every step of that
       value is a correctly rounded, monotone operation except [**];
       so the interior agrees with the formula whenever [**] is
       monotone to within a relative 2^-50 (libm's pow errs by less
       than one ulp, 2^-52).  [create] doubles [margin] until the
       check holds, as it must once no interval has an interior left.
     - The guide table splits the bits into at least 4 buckets per
       interval, indexed by the top bits of [b].  A bucket that lies
       inside one head branch or one interval's interior holds its key.
       Any other holds [-(j + 1)], [j] the last interval starting at
       or below it, where a scan for [b] starts. *)
  type t = {
    n : int;
    theta : float;
    zetan : float;
    alpha : float;
    eta : float;
    half_pow_theta : float;
    b0 : int;
    b1 : int;
    k0 : int;
    bounds : int array;  (** [bounds.(0) = b1], ascending, last 2^53. *)
    guide : int array;
    shift : int;  (** [b lsr shift] indexes [guide]. *)
    margin : int;
  }

  let bits = 1 lsl 53

  let zeta ~n ~theta =
    let s = ref 0. in
    for i = 1 to n do
      s := !s +. (1. /. (float_of_int i ** theta))
    done;
    !s

  let[@inline] base t b = (t.eta *. (float_of_int b /. two53)) -. t.eta +. 1.
  let[@inline] value t b = float_of_int t.n *. (base t b ** t.alpha)

  (* The Gray formula on [u = b / 2^53]: the reference every table
     draw must reproduce. *)
  let formula t b =
    let u = float_of_int b /. two53 in
    let uz = u *. t.zetan in
    if uz < 1. then 0
    else if uz < 1. +. t.half_pow_theta then min 1 (t.n - 1)
    else min (t.n - 1) (max 0 (int_of_float (value t b)))

  (* The least [b] in [0, 2^53) where the monotone [p] holds, else 2^53. *)
  let first_bits p =
    let lo = ref 0 and hi = ref bits in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if p mid then hi := mid else lo := mid + 1
    done;
    !lo

  let slack = 0x1p-40

  let verified t margin =
    let ok = ref true and j = ref 0 in
    while !ok && !j < Array.length t.bounds - 1 do
      let lo = t.bounds.(!j) and hi = t.bounds.(!j + 1) and k = t.k0 + !j in
      if hi - lo > 2 * margin then begin
        let first = lo + margin and last = hi - margin - 1 in
        ok :=
          base t first >= 0.
          && value t first >= float_of_int k *. (1. +. slack)
          && (k = t.n - 1 || value t last <= float_of_int (k + 1) *. (1. -. slack))
      end;
      incr j
    done;
    !ok

  (* Cut [k] is where the formula's value reaches [k]:
     n (1 - eta (1 - u))^alpha = k, so u = 1 - (1 - (k/n)^(1/alpha)) / eta.
     Cuts are kept ascending and clamped to [b1, 2^53]; the keys whose
     cut falls at or below [b1] merge into the first interval. *)
  let tabulate t =
    let cut k =
      let x = (float_of_int k /. float_of_int t.n) ** (1. /. t.alpha) in
      let u = 1. -. ((1. -. x) /. t.eta) in
      if Float.is_nan u then bits
      else int_of_float (Float.min two53 (Float.max 0. (Float.ceil (u *. two53))))
    in
    let k0 = ref 0 in
    while !k0 < t.n - 1 && cut (!k0 + 1) <= t.b1 do
      incr k0
    done;
    let k0 = !k0 in
    let intervals = t.n - k0 in
    let bounds = Array.make (intervals + 1) bits in
    bounds.(0) <- t.b1;
    for j = 1 to intervals - 1 do
      bounds.(j) <- max bounds.(j - 1) (cut (k0 + j))
    done;
    let gbits = ref 2 in
    while 1 lsl !gbits < 4 * intervals do
      incr gbits
    done;
    let shift = 53 - !gbits in
    let guide = Array.make (1 lsl !gbits) 0 in
    let t = { t with k0; bounds; shift } in
    let rec widen margin = if verified t margin then margin else widen (2 * margin) in
    let margin = widen (1 lsl 20) in
    let j = ref 0 in
    for g = 0 to Array.length guide - 1 do
      let lo = g lsl shift and hi = ((g + 1) lsl shift) - 1 in
      while bounds.(!j + 1) <= max t.b1 lo do
        incr j
      done;
      guide.(g) <-
        (if hi < t.b0 then 0
         else if t.b0 <= lo && hi < t.b1 then min 1 (t.n - 1)
         else if t.b1 <= lo && bounds.(!j) + margin <= lo && hi < bounds.(!j + 1) - margin
         then k0 + !j
         else -(!j + 1))
    done;
    { t with guide; margin }

  let create ~n ~theta =
    if n < 1 then invalid_arg "Samplers.Zipf.create: n >= 1";
    if theta < 0. || theta >= 1. then
      invalid_arg "Samplers.Zipf.create: theta in [0, 1)";
    let t =
      {
        n;
        theta;
        zetan = 0.;
        alpha = 0.;
        eta = 0.;
        half_pow_theta = 0.;
        b0 = bits;
        b1 = bits;
        k0 = 0;
        bounds = [| bits; bits |];
        guide = [| -1 |];
        shift = 53;
        margin = 0;
      }
    in
    if theta = 0. then t
    else begin
      let zetan = zeta ~n ~theta in
      let zeta2 = zeta ~n:(min n 2) ~theta in
      let alpha = 1. /. (1. -. theta) in
      let eta =
        (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
        /. (1. -. (zeta2 /. zetan))
      in
      let half_pow_theta = 0.5 ** theta in
      let uz b = float_of_int b /. two53 *. zetan in
      let b0 = first_bits (fun b -> not (uz b < 1.)) in
      let b1 = first_bits (fun b -> not (uz b < 1. +. half_pow_theta)) in
      let t = { t with zetan; alpha; eta; half_pow_theta; b0; b1 } in
      (* The table needs a formula increasing in [b]; otherwise every
         draw past [b1] takes the formula. *)
      if b1 < bits && eta > 0. && Float.is_finite eta then tabulate t
      else { t with bounds = [| b1; bits |]; margin = bits }
    end

  let n t = t.n
  let theta t = t.theta
  let margin t = t.margin
  let boundaries t = Array.append [| t.b0 |] t.bounds

  (* [b]'s bucket straddles a head branch, a cut or a margin: scan
     from interval [j]. *)
  let key_near_cut t b j =
    if b < t.b0 then 0
    else if b < t.b1 then min 1 (t.n - 1)
    else begin
      let bounds = t.bounds in
      let j = ref j in
      while Array.unsafe_get bounds (!j + 1) <= b do
        incr j
      done;
      if b - Array.unsafe_get bounds !j >= t.margin
         && Array.unsafe_get bounds (!j + 1) - b > t.margin
      then t.k0 + !j
      else formula t b
    end

  let key t b =
    let e = Array.unsafe_get t.guide (b lsr t.shift) in
    if e >= 0 then e else key_near_cut t b (-e - 1)

  let key_of_bits t b =
    if b < 0 || b >= bits then invalid_arg "Samplers.Zipf.key_of_bits: b in [0, 2^53)";
    key t b

  let draw t rng = if t.theta = 0. then Rng.int rng t.n else key t (Rng.bits53 rng)
end

(** Exponential inter-arrival gap of a Poisson process with the given
    rate (events per unit time); the gap is in the same time unit. *)
let exp_draw rng ~rate =
  if rate <= 0. then invalid_arg "Samplers.exp_draw: rate > 0";
  -.log (1. -. Rng.float rng) /. rate

(** Precomputed arrival schedules.

    The service generator's hot loop must allocate nothing per
    request, so arrival times are drawn {e ahead of the run} into one
    flat float array: a non-homogeneous Poisson process materialized
    by thinning against its peak rate, exactly the draw-by-draw
    process the open-loop generator used to sample inline — same rng
    discipline, same distribution, zero allocation at fire time. *)
module Schedule = struct
  type on_off = { base_rate : float; burst_rate : float; period_s : float; burst_frac : float }

  (** Arrival times (strictly increasing, in [0, horizon)) of a
      Poisson process at the [on_off] rate, thinned against [peak] (an
      upper bound on it); without [on_off], a homogeneous process at
      [peak].  Deterministic in the rng stream.
      @raise Invalid_argument on a non-positive peak or horizon. *)
  let arrivals ?on_off rng ~peak ~horizon =
    if peak <= 0. then invalid_arg "Samplers.Schedule.arrivals: peak > 0";
    if horizon <= 0. then invalid_arg "Samplers.Schedule.arrivals: horizon > 0";
    (* Expected count is peak·horizon before thinning; grow by
       doubling so a bursty process with a low duty cycle doesn't
       over-reserve. *)
    let cap = ref (max 16 (int_of_float (1.2 *. peak *. horizon) + 8)) in
    let buf = ref (Array.make !cap 0.) in
    let n = ref 0 in
    let t = ref 0. in
    let continue = ref true in
    (* The gap is [exp_draw]'s, drawn here so that no float is boxed.
       A homogeneous process still draws the bits of its thinning
       uniform [u], which always passes ([u < 1], so [u * peak <=
       peak]): every stream stays the same.  The on/off rate is
       computed in the loop from the record's unboxed fields. *)
    while !continue do
      t := !t +. (-.log (1. -. Rng.float rng) /. peak);
      if !t >= horizon then continue := false
      else if
        match on_off with
        | None ->
            ignore (Rng.bits53 rng);
            true
        | Some p ->
            Rng.float rng *. peak
            <=
            if Float.rem !t p.period_s < p.burst_frac *. p.period_s then p.burst_rate
            else p.base_rate
      then begin
        if !n = !cap then begin
          let bigger = Array.make (2 * !cap) 0. in
          Array.blit !buf 0 bigger 0 !n;
          buf := bigger;
          cap := 2 * !cap
        end;
        !buf.(!n) <- !t;
        incr n
      end
    done;
    Array.sub !buf 0 !n
end

(** Index drawn proportionally to [weights] (non-negative, at least one
    positive); a zero-weight index is never returned.  The loops keep
    their float accumulators unboxed: nothing is allocated per pick. *)
let pick_weighted rng ~weights =
  let n = Array.length weights in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  if not (!total > 0.) then invalid_arg "Samplers.pick_weighted: total weight > 0";
  let u = Rng.float rng *. !total in
  let acc = ref 0. and i = ref 0 and chosen = ref (-1) in
  while !chosen < 0 && !i < n do
    let w = weights.(!i) in
    if w > 0. then begin
      acc := !acc +. w;
      if u < !acc then chosen := !i
    end;
    incr i
  done;
  if !chosen < 0 then begin
    (* Floating-point slack pushed [u] past the cumulative sum: take
       the last positive-weight index. *)
    chosen := n - 1;
    while not (weights.(!chosen) > 0.) do
      decr chosen
    done
  end;
  !chosen
