(** Log2 bucketing shared by the histogram record path and the
    percentile estimators.

    Bucket [0] holds samples in [[0, 1]]; bucket [i >= 1] holds
    samples in [[2^i, 2^(i+1) - 1]]; the last bucket absorbs
    everything at or above its lower bound.  The record-path index
    computation is a branch-free-ish binary search on the highest set
    bit — O(1), no allocation, no floats. *)

(* Floor of log2; [v] must be positive.  Binary search on the highest
   set bit so the histogram record path never touches floats. *)
let floor_log2 v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

let index ~buckets v = if v <= 1 then 0 else min (buckets - 1) (floor_log2 v)

let lower_bound i = if i <= 0 then 0 else 1 lsl i

(** Inclusive upper edge of bucket [i]; [max_int] ("+Inf") for the
    last bucket. *)
let upper_bound ~buckets i = if i >= buckets - 1 then max_int else (1 lsl (i + 1)) - 1

(** Nearest-rank percentile estimated from bucket counts, with linear
    interpolation inside the bucket (the true value is only known to
    within its power-of-two bucket).  [nan] on an empty histogram,
    mirroring [Tcm_dist.Stats.Sample.percentile] on an empty sample. *)
let percentile ~counts p =
  let buckets = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 || buckets = 0 then nan
  else begin
    let rank =
      max 1 (min total (int_of_float (ceil (p /. 100. *. float_of_int total))))
    in
    let rec go i cum =
      let c = counts.(i) in
      if cum + c >= rank || i = buckets - 1 then begin
        let lo = float_of_int (lower_bound i) in
        let hi =
          if i >= buckets - 1 then (if lo = 0. then 1. else lo *. 2.)
          else float_of_int (lower_bound (i + 1))
        in
        let n = max 1 c in
        lo +. ((hi -. lo) *. (float_of_int (rank - cum) -. 0.5) /. float_of_int n)
      end
      else go (i + 1) (cum + c)
    in
    go 0 0
  end
