(* Statistics of the benchmark: summaries of repeated
   measurements and the rules that decide what a comparison may
   claim.  Pure functions, so benchmark/test can check them. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so that spreads printed here are
   the ones a Python reader of the result lines computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Distance between the first and third quartile as a share of the
   median: the run-to-run spread a regression bound must exceed. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then nan else (q3 -. q1) /. Float.abs q2

(* The highest of the usual percentiles that still has at least ten of
   [n] samples above it; [None] when even the median lacks them.  The
   slack absorbs rounding in 100 - p, e.g. 100 - 99.9. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10. -. 1e-6)
    [ 99.9; 99.; 95.; 90.; 50. ]

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg (Printf.sprintf "better: %S is neither lower nor higher" s)

(* Relative change of [value] against [base], signed so that a positive
   result is always a worsening. *)
let worsening ~better ~base value =
  let d = (value -. base) /. Float.abs base in
  match better with Lower -> d | Higher -> -.d

(* The contract's regression rule: the change's median may be worse
   than the base's by at most [bound] (a share of the base median). *)
let regressed ~better ~bound ~base value = worsening ~better ~base value > bound

type verdict = Gain | No_regression | Regression | Unresolved

let verdict_name = function
  | Gain -> "gain"
  | No_regression -> "no regression"
  | Regression -> "regression"
  | Unresolved -> "unresolved"

(* Compare runs of a base commit ([base]) and of a change ([change]),
   paired by position (run them alternately).  A gain needs the change
   to win at least nine tenths of the pairs, ties counting for neither,
   and the medians to differ by more than the base's own quartile
   spread.  Otherwise the change's median may be worse by at most
   [bound]; when the base's spread is wider than [bound], "no
   regression" cannot be told apart from noise and the outcome is
   unresolved, unless every change run beats every base run. *)
let compare_runs ~better ~bound ~base ~change =
  let mb = median base and mc = median change in
  let q1, _, q3 = quartiles base in
  let pairs = min (Array.length base) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if worsening ~better ~base:base.(i) change.(i) < 0. then incr wins
  done;
  let beats_all =
    Array.for_all
      (fun c -> Array.for_all (fun b -> worsening ~better ~base:b c < 0.) base)
      change
  in
  if
    pairs > 0
    && 10 * !wins >= 9 * pairs
    && worsening ~better ~base:mb mc < 0.
    && Float.abs (mc -. mb) > q3 -. q1
  then Gain
  else if regressed ~better ~bound ~base:mb mc then Regression
  else if spread base > bound && not beats_all then Unresolved
  else No_regression
