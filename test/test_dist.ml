(* Statistical tests for the shared tcm.dist samplers: the Zipf(θ)
   rank-frequency law, the Poisson inter-arrival distribution, and the
   weighted class picker; and the flat latency sample's percentiles
   against the nearest-rank definition.  Sample sizes and tolerances
   are chosen so the checks are deterministic under the fixed seeds
   yet would catch a broken formula (wrong exponent, off-by-one rank,
   biased picker) by a wide margin. *)

module S = Tcm_dist.Samplers
module Rng = Tcm_stm.Splitmix

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let zipf_counts ~n ~theta ~draws ~seed =
  let z = S.Zipf.create ~n ~theta in
  let rng = Rng.create seed in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = S.Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  counts

let t_zipf_bounds_and_determinism () =
  let n = 100 and theta = 0.9 in
  let z = S.Zipf.create ~n ~theta in
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let k = S.Zipf.draw z rng in
    check_bool "draw in [0, n)" true (k >= 0 && k < n)
  done;
  (* Same seed, same stream. *)
  let a = zipf_counts ~n ~theta ~draws:5_000 ~seed:3 in
  let b = zipf_counts ~n ~theta ~draws:5_000 ~seed:3 in
  check_bool "deterministic under a fixed seed" true (a = b);
  Alcotest.(check int) "accessor n" n (S.Zipf.n z);
  Alcotest.(check (float 1e-9)) "accessor theta" theta (S.Zipf.theta z)

let t_zipf_invalid () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "n = 0 rejected" true (raises (fun () -> S.Zipf.create ~n:0 ~theta:0.5));
  check_bool "theta = 1 rejected" true (raises (fun () -> S.Zipf.create ~n:10 ~theta:1.0));
  check_bool "theta < 0 rejected" true (raises (fun () -> S.Zipf.create ~n:10 ~theta:(-0.1)));
  let z = S.Zipf.create ~n:10 ~theta:0.5 in
  check_bool "negative bits rejected" true (raises (fun () -> S.Zipf.key_of_bits z (-1)));
  check_bool "bits >= 2^53 rejected" true (raises (fun () -> S.Zipf.key_of_bits z (1 lsl 53)))

(* Rank-frequency law: for Zipf(θ), log f(rank) is linear in
   log (rank+1) with slope -θ.  Least-squares fit over the
   well-populated head (every one of the first 20 ranks gets thousands
   of hits at these sizes) must recover the exponent. *)
let t_zipf_rank_frequency_slope () =
  List.iter
    (fun theta ->
      let n = 1_000 and draws = 200_000 in
      let counts = zipf_counts ~n ~theta ~draws ~seed:17 in
      let head = 20 in
      let xs = Array.init head (fun r -> log (float_of_int (r + 1))) in
      let ys =
        Array.init head (fun r ->
            check_bool "head rank populated" true (counts.(r) > 0);
            log (float_of_int counts.(r)))
      in
      let mean a = Array.fold_left ( +. ) 0. a /. float_of_int head in
      let mx = mean xs and my = mean ys in
      let num = ref 0. and den = ref 0. in
      for i = 0 to head - 1 do
        num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
        den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
      done;
      let slope = !num /. !den in
      if Float.abs (slope +. theta) > 0.08 then
        Alcotest.failf "theta=%.2f: fitted slope %.3f (expected %.3f +- 0.08)" theta
          slope (-.theta))
    [ 0.5; 0.9 ]

let t_zipf_monotone_and_skewed () =
  let n = 50 and draws = 100_000 in
  let counts = zipf_counts ~n ~theta:0.9 ~draws ~seed:23 in
  (* Item 0 must be the hottest, and dominate its uniform share by a
     wide margin (theta = 0.9 gives it ~20% of the mass here vs 2%
     uniform). *)
  Array.iteri
    (fun i c -> if i > 0 then check_bool "item 0 hottest" true (counts.(0) >= c))
    counts;
  check_bool "heavily skewed" true (counts.(0) > 5 * draws / n)

let t_zipf_theta_zero_uniform () =
  let n = 20 and draws = 100_000 in
  let counts = zipf_counts ~n ~theta:0. ~draws ~seed:29 in
  let expect = float_of_int draws /. float_of_int n in
  Array.iter
    (fun c ->
      (* 10% relative tolerance; 5000 expected per bucket, sd ~ 70. *)
      if Float.abs (float_of_int c -. expect) > 0.1 *. expect then
        Alcotest.failf "theta=0 not uniform: bucket has %d, expected ~%.0f" c expect)
    counts

(* The table draw against the Gray formula.  The reference below
   computes the formula directly, with the library's precompute and
   per-draw arithmetic on [u = b / 2^53]; it is a copy kept apart from
   the library, so that the table cannot drift from it unseen. *)
let gray ~n ~theta =
  let zeta n =
    let s = ref 0. in
    for i = 1 to n do
      s := !s +. (1. /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n and zeta2 = zeta (min n 2) in
  let alpha = 1. /. (1. -. theta) in
  let eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta2 /. zetan)) in
  let half_pow_theta = 0.5 ** theta in
  fun b ->
    let u = Int64.to_float (Int64.of_int b) /. 9007199254740992.0 in
    let uz = u *. zetan in
    if uz < 1. then 0
    else if uz < 1. +. half_pow_theta then min 1 (n - 1)
    else
      let k = int_of_float (float_of_int n *. (((eta *. u) -. eta +. 1.) ** alpha)) in
      min (n - 1) (max 0 k)

let bits = 1 lsl 53

(* Every cut of the table, the margin around it, and the formula's own
   jump points: each probe must draw the formula's key.  A cut's jump
   point is found by bisecting between the two sides of its margin
   for a pair of neighbouring bits the formula maps to different keys. *)
let t_zipf_table_exact () =
  List.iter
    (fun (n, theta) ->
      let z = S.Zipf.create ~n ~theta in
      let gray = gray ~n ~theta in
      let m = S.Zipf.margin z in
      let bad = ref 0 and probes = ref 0 in
      let probe b =
        if b >= 0 && b < bits then begin
          incr probes;
          if S.Zipf.key_of_bits z b <> gray b then begin
            if !bad < 5 then
              Printf.printf "n=%d theta=%g b=%d: table %d, formula %d\n" n theta b
                (S.Zipf.key_of_bits z b) (gray b);
            incr bad
          end
        end
      in
      let cuts = S.Zipf.boundaries z in
      Array.iter
        (fun c ->
          List.iter
            (fun d -> probe (c + d))
            [ -m - 1; -m; -m + 1; -1; 0; 1; m - 1; m; m + 1 ];
          let lo = ref (max 0 (c - m - 1)) and hi = ref (min (bits - 1) (c + m + 1)) in
          if gray !lo <> gray !hi then begin
            while !hi - !lo > 1 do
              let mid = !lo + ((!hi - !lo) / 2) in
              if gray mid = gray !lo then lo := mid else hi := mid
            done;
            List.iter probe [ !lo - 1; !lo; !hi; !hi + 1 ]
          end)
        cuts;
      (* And a stream of ordinary draws, through [draw] itself. *)
      let a = Rng.create 7 and b = Rng.create 7 in
      for _ = 1 to 100_000 do
        incr probes;
        if S.Zipf.draw z a <> gray (Rng.bits53 b) then incr bad
      done;
      if !bad > 0 then
        Alcotest.failf "n=%d theta=%g: %d of %d probes differ from the formula" n theta !bad
          !probes;
      (* The margins hold a sliver of the bits, so draws take the table:
         past the head branches (from cut 1 on), each interval leaves at
         most [2m] of its bits to the formula. *)
      let formula_bits = ref 0 in
      for j = 1 to Array.length cuts - 2 do
        formula_bits := !formula_bits + min (cuts.(j + 1) - cuts.(j)) (2 * m)
      done;
      let share = float_of_int !formula_bits /. float_of_int bits in
      if share > 1e-3 then
        Alcotest.failf "n=%d theta=%g: margin %d leaves %.2g of the bits to the formula" n
          theta m share)
    [
      (1, 0.5);
      (2, 0.5);
      (3, 0.99);
      (7, 0.01);
      (100, 0.5);
      (1_000, 0.2);
      (8_192, 0.9);
      (50_000, 0.999);
      (262_144, 0.99);
    ]

(* Seeded streams replay bit for bit.  Every seeded result in the repo
   (simulator figures, workload schedules, the benchmark's inputs) is
   drawn from these streams, so each digest below pins one of them: a
   change that moves a digest changes those results.  A digest covers
   100,000 outputs unless its test says otherwise. *)
let digest_of n f =
  let b = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    f b i
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int b x = Buffer.add_int64_le b (Int64.of_int x)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let t_splitmix_replay () =
  let bounds = [| max_int; 100; 2; 1; 7919; (1 lsl 40) + 3; 256; 0 |] in
  List.iter
    (fun (seed, next, int, bool, float) ->
      let check name want f =
        let r = Rng.create seed in
        Alcotest.(check string) (Printf.sprintf "seed %d: %s" seed name) want
          (digest_of 100_000 (f r))
      in
      check "next" next (fun r b _ -> Buffer.add_int64_le b (Rng.next r));
      check "int" int (fun r b i -> add_int b (Rng.int r bounds.(i mod Array.length bounds)));
      check "bool" bool (fun r b _ -> Buffer.add_char b (if Rng.bool r then 't' else 'f'));
      check "float" float (fun r b _ -> add_float b (Rng.float r)))
    [
      ( 42,
        "328d3e3b54fbf9cf054165cb94485895",
        "b4ef06e9e6c35660f1cb2bb6a341e3fc",
        "4e352a2a1d3faf82a791cc363376d173",
        "84869431d64ab0121a1a31eef903cadb" );
      ( -7,
        "b3796cbd3d42b5ec85d486530db53cf9",
        "eab41fb9ffc37e199d33ce4e4db3f190",
        "1cdb3cab177a2720522bc3bc8b751b6d",
        "7cea08cfdb8df5c12df7003eba193f6f" );
    ]

let t_zipf_replay () =
  List.iter
    (fun (n, theta, want) ->
      let z = S.Zipf.create ~n ~theta in
      let r = Rng.create 5 in
      Alcotest.(check string)
        (Printf.sprintf "n=%d theta=%g" n theta)
        want
        (digest_of 100_000 (fun b _ -> add_int b (S.Zipf.draw z r))))
    [
      (1, 0.5, "d96b0fd3002fe2fa3c557da8c18d628e");
      (2, 0.5, "efc3b8183c08c9dc28984350d5ede88c");
      (3, 0.99, "402604408039d182b3e019a01c4bf09c");
      (8_192, 0.9, "fe4903e1d6e8fd8b0e9292fc2e8e325e");
      (262_144, 0.99, "be1c5d9dc2179f40e77f084e61ce193f");
      (1_000, 0., "33586a95a0f69ac441137edb050699a0");
    ]

let t_pick_replay () =
  let r = Rng.create 41 in
  let weights = [| 0.5; 0.; 0.3; 0.2 |] in
  Alcotest.(check string) "pick_weighted" "a68b0bf460766b14ee691b7742be19ff"
    (digest_of 100_000 (fun b _ -> add_int b (S.pick_weighted r ~weights)));
  List.iter
    (fun (read_w, scan_w, rmw_w, want) ->
      let mix = { Tcm_service.Sclass.read_w; scan_w; rmw_w } in
      let r = Rng.create 43 in
      Alcotest.(check string)
        (Printf.sprintf "Sclass.pick %g/%g/%g" read_w scan_w rmw_w)
        want
        (digest_of 100_000 (fun b _ ->
             add_int b (Tcm_service.Sclass.index (Tcm_service.Sclass.pick mix r)))))
    [
      (0.80, 0.05, 0.15, "8a3ecc4906fad7eab8f61a3669187090");
      (0.20, 0.05, 0.75, "6e6e0507736b18cf0f5880c9c58d661e");
      (0., 1., 0., "3ddc56f8991e2a9d775e8c9d4f70a515");
      (0., 0., 2.5, "7205c5d07ae5639b9c94e988d17e6f65");
      (1e-3, 0., 1e-3, "bbd7aebf72ca00c4ec6adee4c2c86513");
      (0.1, 0.2, 0., "0ee6581308d3eb7dbc87ea5f304cabe2");
    ]

(* One kv-hot fixed-rate window's traffic, drawn the way the service
   draws it: the arrivals, then a class per request, then every key. *)
let t_kv_window_replay () =
  let open Tcm_service in
  let rng = Rng.create ((11 * 31) + 1) in
  let zipf = S.Zipf.create ~n:8_192 ~theta:0.9 in
  let times = Arrival.schedule (Arrival.Poisson { rate = 150_000. }) rng ~horizon:0.8 in
  let cls = Array.map (fun _ -> Sclass.pick Sclass.default_mix rng) times in
  let nkeys = function Sclass.Read -> 8 | Sclass.Scan -> 1 | Sclass.Rmw -> 2 in
  let total = Array.fold_left (fun a c -> a + nkeys c) 0 cls in
  let keys = Array.init total (fun _ -> S.Zipf.draw zipf rng) in
  Alcotest.(check int) "requests" 120_461 (Array.length times);
  Alcotest.(check int) "keys" 814_170 total;
  Alcotest.(check string) "arrival times" "113f2887f95cb1de9c92093ed5fca84f"
    (digest_of (Array.length times) (fun b i -> add_float b times.(i)));
  Alcotest.(check string) "classes" "73ade88e68937cab26a058c42c952169"
    (digest_of (Array.length cls) (fun b i -> add_int b (Sclass.index cls.(i))));
  Alcotest.(check string) "keys" "280bc8b1dfd3cea19fd9913ac179d8b9"
    (digest_of total (fun b i -> add_int b keys.(i)))

(* Exact allocation counts: a draw stores its state in place and
   returns an immediate, so a million of them allocate nothing. *)
let zero_words name f =
  let m0 = Gc.minor_words () in
  f ();
  Alcotest.(check (float 0.)) (name ^ ": minor words") 0. (Gc.minor_words () -. m0)

let t_draws_allocate_nothing () =
  let n = 1_000_000 in
  let r = Rng.create 3 in
  let sink = ref 0 in
  zero_words "1e6 Splitmix.int" (fun () ->
      for _ = 1 to n do
        sink := !sink + Rng.int r 1_000
      done);
  zero_words "1e6 Splitmix.bool" (fun () ->
      for _ = 1 to n do
        if Rng.bool r then incr sink
      done);
  let z = S.Zipf.create ~n:8_192 ~theta:0.9 in
  zero_words "1e6 Zipf.draw at theta 0.9" (fun () ->
      for _ = 1 to n do
        sink := !sink + S.Zipf.draw z r
      done);
  ignore (Sys.opaque_identity !sink)

(* ------------------------------------------------------------------ *)
(* Poisson inter-arrivals                                              *)
(* ------------------------------------------------------------------ *)

(* Exponential gaps: mean 1/rate and coefficient of variation 1 are
   the fingerprints of a Poisson process (a deterministic or uniform
   generator would show CV well below 1). *)
let t_exp_draw_mean_and_cv () =
  let rate = 500. in
  let rng = Rng.create 31 in
  let draws = 100_000 in
  let xs = List.init draws (fun _ -> S.exp_draw rng ~rate) in
  List.iter (fun x -> check_bool "gap positive" true (x >= 0.)) xs;
  let mean = Tcm_dist.Stats.mean xs in
  let cv = Tcm_dist.Stats.cv xs in
  if Float.abs (mean -. (1. /. rate)) > 0.03 /. rate then
    Alcotest.failf "mean gap %.6f, expected ~%.6f" mean (1. /. rate);
  if Float.abs (cv -. 1.) > 0.03 then
    Alcotest.failf "inter-arrival CV %.3f, expected ~1 (Poisson)" cv

let t_exp_draw_invalid () =
  let rng = Rng.create 1 in
  check_bool "rate = 0 rejected" true
    (try ignore (S.exp_draw rng ~rate:0.); false with Invalid_argument _ -> true)

(* The service's bursty process must also produce CV ~ 1 *within* each
   phase; spot-check the thinning acceptance logic end to end instead:
   arrivals generated over whole cycles land in the burst window at
   the burst/base rate ratio. *)
let t_bursty_thinning_ratio () =
  let process =
    Tcm_service.Arrival.Bursty
      { base_rate = 500.; burst_rate = 2_000.; period_s = 0.1; burst_frac = 0.25 }
  in
  let rng = Rng.create 37 in
  let in_burst = ref 0 and total = ref 0 in
  let t = ref 0. in
  while !t < 50. do
    t := Tcm_service.Arrival.next process rng ~t:!t;
    if !t < 50. then begin
      incr total;
      if Float.rem !t 0.1 < 0.025 then incr in_burst
    end
  done;
  (* Expected share of arrivals inside the burst window:
     (2000 * 0.025) / (2000 * 0.025 + 500 * 0.075) = 4/7 ~ 0.571. *)
  let share = float_of_int !in_burst /. float_of_int !total in
  if Float.abs (share -. 4. /. 7.) > 0.03 then
    Alcotest.failf "burst-window share %.3f, expected ~0.571" share;
  (* Overall rate ~ 875/s. *)
  let rate = float_of_int !total /. 50. in
  if Float.abs (rate -. 875.) > 40. then
    Alcotest.failf "offered rate %.0f/s, expected ~875/s" rate

(* ------------------------------------------------------------------ *)
(* Precomputed arrival schedules                                       *)
(* ------------------------------------------------------------------ *)

let t_schedule_shape_and_rate () =
  let rate = 2_000. and horizon = 20. in
  let arr =
    S.Schedule.arrivals (Rng.create 53) ~rate_at:(fun _ -> rate) ~peak:rate
      ~horizon
  in
  let n = Array.length arr in
  (* Poisson count: mean 40k, sd 200; +-5 sd. *)
  check_bool "count near rate * horizon" true
    (Float.abs (float_of_int n -. (rate *. horizon)) < 1_000.);
  let ok = ref true in
  Array.iteri
    (fun i t ->
      if t < 0. || t >= horizon then ok := false;
      if i > 0 && t <= arr.(i - 1) then ok := false)
    arr;
  check_bool "strictly increasing within [0, horizon)" true !ok;
  (* Same seed, same schedule — the engine replays these verbatim. *)
  let again =
    S.Schedule.arrivals (Rng.create 53) ~rate_at:(fun _ -> rate) ~peak:rate
      ~horizon
  in
  check_bool "deterministic in the seed" true (arr = again)

let t_schedule_thinning () =
  (* rate_at = peak/4 everywhere: thinning must keep ~1/4 of the
     dominating process, not all of it. *)
  let peak = 4_000. and horizon = 10. in
  let arr =
    S.Schedule.arrivals (Rng.create 59) ~rate_at:(fun _ -> peak /. 4.) ~peak
      ~horizon
  in
  let n = float_of_int (Array.length arr) in
  check_bool "thinned to the instantaneous rate" true
    (Float.abs (n -. (peak /. 4. *. horizon)) < 500.);
  (* A zero-rate region must produce no arrivals at all. *)
  let gated =
    S.Schedule.arrivals (Rng.create 61)
      ~rate_at:(fun t -> if t < 5. then 1_000. else 0.)
      ~peak:1_000. ~horizon
  in
  check_bool "zero-rate tail is empty" true
    (Array.for_all (fun t -> t < 5.) gated)

let t_schedule_invalid () =
  let reject name f =
    check_bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  reject "peak = 0 rejected" (fun () ->
      S.Schedule.arrivals (Rng.create 1) ~rate_at:(fun _ -> 1.) ~peak:0. ~horizon:1.);
  reject "horizon = 0 rejected" (fun () ->
      S.Schedule.arrivals (Rng.create 1) ~rate_at:(fun _ -> 1.) ~peak:1. ~horizon:0.)

(* ------------------------------------------------------------------ *)
(* Weighted pick                                                       *)
(* ------------------------------------------------------------------ *)

let t_pick_weighted_proportions () =
  let weights = [| 0.5; 0.; 0.3; 0.2 |] in
  let rng = Rng.create 41 in
  let draws = 100_000 in
  let counts = Array.make 4 0 in
  for _ = 1 to draws do
    let i = S.pick_weighted rng ~weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  Array.iteri
    (fun i w ->
      if w > 0. then
        let got = float_of_int counts.(i) /. float_of_int draws in
        if Float.abs (got -. w) > 0.01 then
          Alcotest.failf "index %d drawn %.3f, expected %.3f" i got w)
    weights

let t_pick_weighted_invalid () =
  let rng = Rng.create 1 in
  check_bool "all-zero weights rejected" true
    (try ignore (S.pick_weighted rng ~weights:[| 0.; 0. |]); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Flat samples                                                        *)
(* ------------------------------------------------------------------ *)

module Sample = Tcm_dist.Stats.Sample

(* The reference: nearest rank over a sorted copy of a float list,
   sorted once for any number of percentiles. *)
let nearest_ranks xs =
  let sorted = Array.of_list (List.sort compare xs) in
  let n = Array.length sorted in
  fun p ->
    if n = 0 then nan
    else
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

let nearest_rank p xs = nearest_ranks xs p

let ps = [ 0.; 1.; 50.; 99.; 100. ]

let same_percentiles s xs =
  List.for_all (fun p -> Float.equal (Sample.percentile s p) (nearest_rank p xs)) ps

(* Latencies are quantized to 1 us, so the values are small integers:
   long runs of duplicates. *)
let latencies = QCheck.(list_of_size Gen.(int_range 0 1000) (map float_of_int (int_bound 40)))

(* [concat] merges inputs that are all sorted and appends otherwise;
   either way its percentiles are those of every value pooled, at
   every rank. *)
let concat_is_pooled xs ys zs =
  let sorted l =
    let s = Sample.of_list l in
    ignore (Sample.percentile s 50.);
    s
  in
  let unsorted l =
    let s = Sample.create 0 in
    List.iter (Sample.add s) l;
    s
  in
  let pooled all ts =
    let want = nearest_ranks all in
    let c = Sample.concat ts in
    Sample.length c = List.length all
    && List.for_all
         (fun p -> Float.equal (Sample.percentile c p) (want p))
         (List.init 101 float_of_int)
  in
  let all = xs @ ys @ zs in
  let few = List.filteri (fun i _ -> i < 40) all in
  pooled all [| sorted xs; sorted ys; sorted zs |]
  && pooled all [| unsorted xs; unsorted ys; unsorted zs |]
  && pooled all [| sorted xs; unsorted ys; sorted zs |]
  && pooled all [| Sample.create 0; sorted xs; Sample.create 4; unsorted ys; sorted zs |]
  && pooled few (Array.of_list (List.map (fun x -> sorted [ x ]) few))

let prop_percentile_nearest_rank =
  QCheck.Test.make ~name:"percentile = nearest rank of a sorted copy" ~count:300
    QCheck.(triple latencies latencies latencies)
    (fun (xs, ys, zs) ->
      let s = Sample.of_list xs in
      let before = same_percentiles s xs in
      (* Adding after a query must re-sort. *)
      List.iter (Sample.add s) ys;
      let mean_ok =
        let m = Tcm_dist.Stats.mean (xs @ ys) in
        Float.abs (Sample.mean s -. m) <= 1e-9 *. Float.abs m
      in
      before && mean_ok && same_percentiles s (xs @ ys) && concat_is_pooled xs ys zs)

let t_sample_edges () =
  let one = Sample.of_list [ 7. ] in
  let empty = Sample.create 4 in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) (Printf.sprintf "one value: p%.0f" p) 7.
        (Sample.percentile one p);
      check_bool (Printf.sprintf "empty: p%.0f is nan" p) true
        (Float.is_nan (Sample.percentile empty p)))
    ps;
  Alcotest.(check (float 0.)) "empty mean" 0. (Sample.mean empty);
  (* A sample created with no room grows. *)
  let s = Sample.create 0 in
  for i = 1 to 1000 do
    Sample.add s (float_of_int (1001 - i))
  done;
  Alcotest.(check int) "grown" 1000 (Sample.length s);
  Alcotest.(check (float 0.)) "p50 after growth" 500. (Sample.percentile s 50.)

(* Completion-order latencies come in shapes: ascending during a
   drain, organ-pipe while a queue fills then empties, sawtooth.
   200,000 of each must sort to the right ranks; a quadratic sort
   would take minutes here. *)
let t_sample_shapes () =
  let n = 200_000 in
  List.iter
    (fun (name, f) ->
      let s = Sample.create n in
      let sorted = Float.Array.init n f in
      for i = 0 to n - 1 do
        Sample.add s (Float.Array.get sorted i)
      done;
      Float.Array.sort Float.compare sorted;
      List.iter
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s p%.0f" name p)
            (Float.Array.get sorted (rank - 1))
            (Sample.percentile s p))
        (List.init 101 float_of_int))
    [
      ("ascending", float_of_int);
      ("descending", fun i -> float_of_int (n - i));
      ("organ pipe", fun i -> float_of_int (min i (n - 1 - i)));
      ("sawtooth", fun i -> float_of_int (i mod 1000));
    ]

let () =
  Alcotest.run "dist"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds and determinism" `Quick t_zipf_bounds_and_determinism;
          Alcotest.test_case "invalid parameters" `Quick t_zipf_invalid;
          Alcotest.test_case "rank-frequency slope ~ -theta" `Quick
            t_zipf_rank_frequency_slope;
          Alcotest.test_case "monotone and skewed" `Quick t_zipf_monotone_and_skewed;
          Alcotest.test_case "theta=0 is uniform" `Quick t_zipf_theta_zero_uniform;
          Alcotest.test_case "table draw = formula at every cut" `Quick t_zipf_table_exact;
        ] );
      ( "replay",
        [
          Alcotest.test_case "splitmix streams" `Quick t_splitmix_replay;
          Alcotest.test_case "zipf streams" `Quick t_zipf_replay;
          Alcotest.test_case "weighted and class picks" `Quick t_pick_replay;
          Alcotest.test_case "kv-hot window schedule" `Quick t_kv_window_replay;
          Alcotest.test_case "draws allocate nothing" `Quick t_draws_allocate_nothing;
        ] );
      ( "poisson",
        [
          Alcotest.test_case "mean gap and CV ~ 1" `Quick t_exp_draw_mean_and_cv;
          Alcotest.test_case "invalid rate" `Quick t_exp_draw_invalid;
          Alcotest.test_case "bursty thinning ratio" `Quick t_bursty_thinning_ratio;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "shape, rate and determinism" `Quick
            t_schedule_shape_and_rate;
          Alcotest.test_case "thinning follows rate_at" `Quick t_schedule_thinning;
          Alcotest.test_case "invalid parameters" `Quick t_schedule_invalid;
        ] );
      ( "pick-weighted",
        [
          Alcotest.test_case "proportions" `Quick t_pick_weighted_proportions;
          Alcotest.test_case "invalid weights" `Quick t_pick_weighted_invalid;
        ] );
      ( "sample",
        [
          QCheck_alcotest.to_alcotest prop_percentile_nearest_rank;
          Alcotest.test_case "one value, empty, growth" `Quick t_sample_edges;
          Alcotest.test_case "latency shapes sort" `Quick t_sample_shapes;
        ] );
    ]
