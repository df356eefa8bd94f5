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
  check_bool "theta < 0 rejected" true (raises (fun () -> S.Zipf.create ~n:10 ~theta:(-0.1)))

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

(* The reference: nearest rank over a sorted copy of a float list. *)
let nearest_rank p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let ps = [ 0.; 1.; 50.; 99.; 100. ]

let same_percentiles s xs =
  List.for_all (fun p -> Float.equal (Sample.percentile s p) (nearest_rank p xs)) ps

(* Latencies are quantized to 1 us, so the values are small integers:
   long runs of duplicates. *)
let latencies = QCheck.(list_of_size Gen.(int_range 0 1000) (map float_of_int (int_bound 40)))

let prop_percentile_nearest_rank =
  QCheck.Test.make ~name:"percentile = nearest rank of a sorted copy" ~count:300
    QCheck.(pair latencies latencies)
    (fun (xs, ys) ->
      let s = Sample.of_list xs in
      let before = same_percentiles s xs in
      (* Adding after a query must re-sort. *)
      List.iter (Sample.add s) ys;
      let mean_ok =
        let m = Tcm_dist.Stats.mean (xs @ ys) in
        Float.abs (Sample.mean s -. m) <= 1e-9 *. Float.abs m
      in
      before && mean_ok
      && same_percentiles s (xs @ ys)
      && same_percentiles (Sample.concat [| Sample.of_list xs; Sample.of_list ys |]) (xs @ ys))

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
