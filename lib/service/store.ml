(** The transactional key-value store behind the service: values in a
    {!Tcm_structures.Thashmap}, so point ops conflict only per bucket.

    The keyspace is dense and fixed at build: {!preload} or {!prefill}
    binds every key of [0 .. n_keys - 1], and the service draws every
    key from that range, so [put]/[rmw] hit existing bindings.  Ordered
    scans need no separate key index: the keys from [lo] on are
    [lo, lo + 1, ...], each looked up in the hashmap, and a scan
    conflicts only through the buckets it reads. *)

open Tcm_stm
module H = Tcm_structures.Thashmap

type t = { map : int H.t; n_keys : int }

(* Batch size for prefill transactions: big enough to amortize the
   per-transaction cost over millions of keys, small enough to keep
   each prefill write set trivial for either backend. *)
let prefill_batch = 64

let create ?buckets ~n_keys () =
  if n_keys < 1 then invalid_arg "Store.create: n_keys >= 1";
  (* Low single-digit hashmap occupancy by default (see the hashmap's
     sizing notes); [buckets] overrides it exactly. *)
  { map = H.create ?buckets ~expect:n_keys (); n_keys }

(** Populate keys [0 .. n_keys - 1] (value = key) directly, without
    transactions — only sound before the store is published to any
    worker.  This is how a service run builds a million-key store in
    tens of milliseconds instead of minutes of STM commits; {!prefill}
    remains as the transactional reference build. *)
let preload t = H.unsafe_preload t.map (Array.init t.n_keys (fun k -> (k, k)))

(** Populate keys [0 .. n_keys - 1] (value = key), batched. *)
let prefill rt t =
  let k = ref 0 in
  while !k < t.n_keys do
    let hi = min t.n_keys (!k + prefill_batch) in
    let lo = !k in
    ignore
      (Stm.atomically rt (fun tx ->
           for key = lo to hi - 1 do
             H.add tx t.map key key
           done;
           hi - lo));
    k := hi
  done

let n_keys t = t.n_keys

let get tx t k = H.find tx t.map k

let put tx t k v = H.add tx t.map k v

(** Read-modify-write one binding (insert-if-absent included). *)
let rmw tx t k f = H.update tx t.map k f

(** Ordered scan over the dense keyspace: the [len] keys from
    [max 0 lo] on, cut at [n_keys], each a point lookup; returns the
    number of bindings found and the sum of their values.  The cut is
    taken before adding, so no [len] overflows. *)
let scan tx t ~lo ~len =
  let lo = max 0 lo in
  let stop =
    if len <= 0 then lo else if len >= t.n_keys - lo then t.n_keys else lo + len
  in
  let n = ref 0 and sum = ref 0 in
  for k = lo to stop - 1 do
    match H.find tx t.map k with
    | Some v ->
        incr n;
        sum := !sum + v
    | None -> ()
  done;
  (!n, !sum)
