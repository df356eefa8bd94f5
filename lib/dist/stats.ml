(** Small statistics helpers for benchmark reporting. *)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

(** Coefficient of variation — used to demonstrate the "high variance"
    of red-black-forest transaction lengths. *)
let cv xs = match mean xs with 0. -> 0. | m -> stddev xs /. m

(* The range is closed at both ends: a sample exactly at [hi] lands in
   the last bucket rather than being dropped (p100 of a latency sample
   IS the max — losing it skewed every tail histogram). *)
let histogram ~buckets ~lo ~hi xs =
  let h = Array.make buckets 0 in
  let w = (hi -. lo) /. float_of_int buckets in
  List.iter
    (fun x ->
      if x >= lo && x <= hi then
        let b = int_of_float ((x -. lo) /. w) in
        h.(min (buckets - 1) b) <- h.(min (buckets - 1) b) + 1)
    xs;
  h

(* In-place quicksort of a float array with the float [<] inlined: a
   comparison closure, even [Float.compare], would box both operands on
   every call in a non-flambda build.  The pivot is the median of the
   first, middle and last values, so the shapes completion-order
   latencies take (ascending during a drain, organ-pipe while a queue
   fills then empties, sawtooth) sort in n log n; Hoare partitioning
   splits runs of equal values (latencies are quantized to 1 us)
   evenly.  Ranges under 16 values go to insertion sort.  The smaller
   side recurses and the larger is a tail call, so the stack stays
   log n deep. *)
module Sort = struct
  let get = Float.Array.unsafe_get
  let set = Float.Array.unsafe_set

  let swap a i j =
    let t = get a i in
    set a i (get a j);
    set a j t

  let insertion a lo hi =
    for i = lo + 1 to hi do
      let x = get a i in
      let j = ref (i - 1) in
      while !j >= lo && get a !j > x do
        set a (!j + 1) (get a !j);
        decr j
      done;
      set a (!j + 1) x
    done

  (* Sorts [a.(lo..hi)], both ends inclusive. *)
  let rec quick a lo hi =
    if hi - lo < 16 then insertion a lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if get a mid < get a lo then swap a mid lo;
      if get a hi < get a lo then swap a hi lo;
      if get a hi < get a mid then swap a hi mid;
      let p = get a mid in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while get a !i < p do
          incr i
        done;
        while get a !j > p do
          decr j
        done;
        if !i <= !j then begin
          swap a !i !j;
          incr i;
          decr j
        end
      done;
      if !j - lo < hi - !i then begin
        quick a lo !j;
        quick a !i hi
      end
      else begin
        quick a !i hi;
        quick a lo !j
      end
    end
end

module Sample = struct
  type t = {
    mutable data : Float.Array.t;  (** Slots [0, len) hold the values. *)
    mutable len : int;
    mutable sorted : bool;  (** [data] is ascending up to [len]. *)
  }

  let create capacity =
    { data = Float.Array.create (max 0 capacity); len = 0; sorted = true }

  let length t = t.len

  let reserve t n =
    if n > Float.Array.length t.data then begin
      let data = Float.Array.create (max n (2 * Float.Array.length t.data)) in
      Float.Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let add t x =
    if t.len = Float.Array.length t.data then reserve t (max 16 (t.len + 1));
    Float.Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1;
    t.sorted <- false

  let append ~into src =
    reserve into (into.len + src.len);
    Float.Array.blit src.data 0 into.data into.len src.len;
    into.len <- into.len + src.len;
    into.sorted <- into.sorted && src.len = 0

  let concat ts =
    let all = create (Array.fold_left (fun n t -> n + t.len) 0 ts) in
    Array.iter (fun t -> append ~into:all t) ts;
    all

  let of_list xs =
    let t = create (List.length xs) in
    List.iter (add t) xs;
    t

  let mean t =
    if t.len = 0 then 0.
    else begin
      let s = ref 0. in
      for i = 0 to t.len - 1 do
        s := !s +. Float.Array.unsafe_get t.data i
      done;
      !s /. float_of_int t.len
    end

  let percentile t p =
    if t.len = 0 then nan
    else begin
      if not t.sorted then begin
        Sort.quick t.data 0 (t.len - 1);
        t.sorted <- true
      end;
      let rank = int_of_float (ceil (p /. 100. *. float_of_int t.len)) in
      Float.Array.get t.data (max 0 (min (t.len - 1) (rank - 1)))
    end
end
