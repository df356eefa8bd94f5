(* The benchmark's statistics: the summaries it prints and the
   rules a comparison of two commits is judged by. *)

open Bench_stats

let close = Alcotest.float 1e-9
let triple = Alcotest.(triple close close close)

(* Expected values are Python's statistics.median / statistics.quantiles
   (n=4), so that spreads agree with a Python reader of the result lines. *)
let test_median () =
  Alcotest.check close "odd" 3. (median [| 5.; 1.; 3. |]);
  Alcotest.check close "even averages the middle two" 2.5 (median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "single" 7. (median [| 7. |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (median [||]))

let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (quartiles [| 4.; 3.; 2.; 1. |]);
  Alcotest.check triple "three" (1., 3., 5.) (quartiles [| 5.; 1.; 3. |]);
  Alcotest.check triple "two extrapolates" (0.75, 1.5, 2.25) (quartiles [| 2.; 1. |]);
  Alcotest.check triple "unsorted seven" (2., 4., 7.75)
    (quartiles [| 3.5; 1.25; 9.; 2.; 7.75; 4.; 6.5 |]);
  Alcotest.check close "spread is IQR over median" ((8.25 -. 2.75) /. 5.5)
    (spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_tail_percentile () =
  let p = Alcotest.(option (float 0.)) in
  Alcotest.check p "10000 samples: p99.9" (Some 99.9) (tail_percentile 10_000);
  Alcotest.check p "1000 samples: p99" (Some 99.) (tail_percentile 1_000);
  Alcotest.check p "999 samples: p95" (Some 95.) (tail_percentile 999);
  Alcotest.check p "100 samples: p90 has exactly 10 beyond" (Some 90.) (tail_percentile 100);
  Alcotest.check p "20 samples: median" (Some 50.) (tail_percentile 20);
  Alcotest.check p "19 samples: nothing" None (tail_percentile 19)

let test_bounds () =
  Alcotest.(check bool) "lower: 11% worse breaks a 10% bound" true
    (regressed ~better:Lower ~bound:0.1 ~base:100. 111.);
  Alcotest.(check bool) "lower: 9% worse holds" false
    (regressed ~better:Lower ~bound:0.1 ~base:100. 109.);
  Alcotest.(check bool) "higher: 11% fewer breaks it" true
    (regressed ~better:Higher ~bound:0.1 ~base:100. 89.);
  Alcotest.(check bool) "higher: more is never a regression" false
    (regressed ~better:Higher ~bound:0.1 ~base:100. 150.)

let base = [| 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. |]
let shift d = Array.map (fun v -> v +. d) base
let verdict = Alcotest.testable (Fmt.of_to_string verdict_name) ( = )

let test_compare () =
  let cmp ?(bound = 0.05) better change = compare_runs ~better ~bound ~base ~change in
  Alcotest.check verdict "identical runs" No_regression (cmp Lower base);
  Alcotest.check verdict "10% slower" Regression (cmp Lower (shift 10.));
  Alcotest.check verdict "3% slower is inside a 5% bound" No_regression (cmp Lower (shift 3.));
  Alcotest.check verdict "10% faster on every pair" Gain (cmp Lower (shift (-10.)));
  Alcotest.check verdict "same data, higher is better" Gain (cmp Higher (shift 10.));
  (* Winning 8 of 10 pairs is short of nine tenths. *)
  let mostly = Array.mapi (fun i v -> if i < 2 then v +. 5. else v -. 10.) base in
  Alcotest.check verdict "8 of 10 pairs is no gain" No_regression (cmp Lower mostly);
  let noisy = [| 60.; 140.; 100.; 70.; 130.; 90.; 110.; 80.; 120.; 100. |] in
  Alcotest.check verdict "base spread wider than the bound" Unresolved
    (compare_runs ~better:Lower ~bound:0.05 ~base:noisy ~change:noisy);
  Alcotest.check verdict "unless every change run beats every base run" No_regression
    (compare_runs ~better:Lower ~bound:0.05 ~base:noisy ~change:[| 59.; 58.; 57. |])

let () =
  Alcotest.run "bench-stats"
    [
      ( "bench-stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "regression bound" `Quick test_bounds;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
        ] );
    ]
