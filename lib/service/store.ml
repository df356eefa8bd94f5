(** The transactional key-value store behind the service: a fixed hash
    table over the dense keyspace [[0, n_keys)], so point ops conflict
    only per bucket.

    The store keeps [2^b] bucket variables, [2^b] the least power of
    two [>= max 64 (n_keys / 4)].  Key [k] lives in bucket
    [k land (2^b - 1)] at slot [k lsr b], so consecutive keys (and the
    Zipf head, which is keys [0, 1, 2, ...]) land in distinct buckets.
    A bucket's value is one immutable [int array], one slot per key of
    the bucket ([ceil (n_keys / 2^b)] slots: at most 4, and 4 at the
    benchmark's 8,192 and 262,144 keys),
    [min_int] marking a slot with no binding.  A get is one
    transactional read and one array load; a write copies the bucket's
    array and writes the copy, so a published array is never mutated
    and a reader needs no copy.  Ordered scans need no key index: the
    keys from [lo] on are [lo, lo + 1, ...], each one bucket read. *)

open Tcm_stm

type t = {
  buckets : int array Tvar.t array;
  bits : int;  (** [b]: a key's slot is [k lsr bits]. *)
  slots : int;  (** Keys per bucket. *)
  n_keys : int;
}

(* The slot value of a key with no binding; [put] and [rmw] refuse to
   store it. *)
let absent = min_int

(* Batch size for prefill transactions: big enough to amortize the
   per-transaction cost over millions of keys, small enough to keep
   each prefill write set trivial for either backend. *)
let prefill_batch = 64

let create ~n_keys () =
  if n_keys < 1 then invalid_arg "Store.create: n_keys >= 1";
  let target = max 64 (n_keys / 4) in
  let bits = ref 0 in
  while 1 lsl !bits < target do
    incr bits
  done;
  let n_buckets = 1 lsl !bits in
  let slots = (n_keys + n_buckets - 1) / n_buckets in
  (* Unbuilt buckets share one all-absent array: nobody writes a
     published array. *)
  let empty = Array.make slots absent in
  { buckets = Array.init n_buckets (fun _ -> Tvar.make empty); bits = !bits; slots; n_keys }

(** Bind keys [0 .. n_keys - 1] (value = key) directly, without
    transactions — only sound before the store is published to any
    worker.  This is how a service run builds its store, about 10x
    faster per key than {!prefill}, the transactional reference
    build. *)
let preload t =
  let mask = Array.length t.buckets - 1 in
  for b = 0 to mask do
    let a = Array.make t.slots absent in
    for s = 0 to t.slots - 1 do
      let k = (s lsl t.bits) lor b in
      if k < t.n_keys then a.(s) <- k
    done;
    Tvar.unsafe_init t.buckets.(b) a
  done

let n_keys t = t.n_keys

(* The bucket count is a power of two, so the mask is an index.  Every
   caller has checked [0 <= k < n_keys], so [k lsr bits] is a slot of
   the bucket's array and the loads below need no bounds check. *)
let bucket t k = Array.unsafe_get t.buckets (k land (Array.length t.buckets - 1))

let get tx t k =
  if k < 0 || k >= t.n_keys then None
  else
    let v = Array.unsafe_get (Stm.read tx (bucket t k)) (k lsr t.bits) in
    if v = absent then None else Some v

(* Write [a] with [v] at slot [s] into [bv]: a copy of the bucket's
   array, one write. *)
let write_slot tx bv a s v =
  let a = Array.copy a in
  Array.unsafe_set a s v;
  Stm.write tx bv a

let check_key fn t k =
  if k < 0 || k >= t.n_keys then
    invalid_arg (Printf.sprintf "Store.%s: key %d outside [0, %d)" fn k t.n_keys)

let check_value fn v = if v = absent then invalid_arg ("Store." ^ fn ^ ": min_int is reserved")

let put tx t k v =
  check_key "put" t k;
  check_value "put" v;
  let bv = bucket t k in
  write_slot tx bv (Stm.read_for_write tx bv) (k lsr t.bits) v

(** Read-modify-write one binding (insert-if-absent included): one open
    for write of the bucket; deleting an absent binding writes
    nothing. *)
let rmw tx t k f =
  check_key "rmw" t k;
  let bv = bucket t k in
  let a = Stm.read_for_write tx bv in
  let s = k lsr t.bits in
  let old = Array.unsafe_get a s in
  match f (if old = absent then None else Some old) with
  | Some v ->
      check_value "rmw" v;
      write_slot tx bv a s v
  | None -> if old <> absent then write_slot tx bv a s absent

(** Populate keys [0 .. n_keys - 1] (value = key), batched. *)
let prefill rt t =
  let k = ref 0 in
  while !k < t.n_keys do
    let hi = min t.n_keys (!k + prefill_batch) in
    let lo = !k in
    ignore
      (Stm.atomically rt (fun tx ->
           for key = lo to hi - 1 do
             put tx t key key
           done;
           hi - lo));
    k := hi
  done

(** Ordered scan over the dense keyspace: the [len] keys from
    [max 0 lo] on, cut at [n_keys], one bucket read each; returns the
    number of bindings found and the sum of their values.  The cut is
    taken before adding, so no [len] overflows. *)
let scan tx t ~lo ~len =
  let lo = max 0 lo in
  let stop =
    if len <= 0 then lo else if len >= t.n_keys - lo then t.n_keys else lo + len
  in
  let n = ref 0 and sum = ref 0 in
  for k = lo to stop - 1 do
    let v = Array.unsafe_get (Stm.read tx (bucket t k)) (k lsr t.bits) in
    if v <> absent then begin
      incr n;
      sum := !sum + v
    end
  done;
  (!n, !sum)
