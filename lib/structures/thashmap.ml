(** Transactional hash map (int keys), bucketed into per-bucket
    association lists each held in its own [Tvar] — so transactions on
    different buckets never conflict, giving adopters a lower-contention
    alternative to the intset structures for key-value state.

    {1 Incremental power-of-two resize}

    The table doubles {e one bucket at a time}.  Every physical bucket
    carries its own split depth [d]: a bucket at index [b] with depth
    [d] holds exactly the keys whose hash satisfies
    [h land (base·2^d − 1) = b].  Splitting such a bucket partitions
    its items on the next hash bit: the low half stays at [b] with
    depth [d + 1], the high half moves to the buddy
    [b + base·2^d] (a previously [Fresh] bucket) — two bucket writes
    inside the splitting transaction, so {e a concurrent transaction
    conflicts with a split only if it touches the bucket being split
    or its buddy}; the rest of the table is untouched.

    A key's candidate buckets form the chain [idx(h, j) =
    h land (base·2^j − 1)] for growing [j]; exactly one live bucket on
    that chain covers the key.  {!locate} walks the chain from a
    relaxed depth hint: a [Fresh] bucket means the home is shallower, a
    live bucket whose depth says the key hashes elsewhere means it is
    deeper.  Under a consistent snapshot the walk is monotone and
    terminates; the fuel guard documents that invariant.

    Buddy buckets live in lazily allocated {e segments} (segment [s]
    covers indices [[base·2^(s−1), base·2^s))), so the bucket [Tvar]s
    never move — growing the table never invalidates an index another
    transaction already read. *)

open Tcm_stm

type 'v bucket =
  | Fresh  (** Not yet part of the table; contents live at an ancestor. *)
  | Items of { depth : int; items : (int * 'v) list }

type 'v t = {
  base : int;  (** Initial bucket count; power of two. *)
  seg0 : 'v bucket Tvar.t array;
  segs : 'v bucket Tvar.t array Atomic.t array;
      (** [segs.(s-1)] covers indices [base·2^(s−1), base·2^s);
          [[||]] marks a segment not yet allocated. *)
  seg_lock : Mutex.t;  (** Serializes segment allocation only. *)
  depth_hint : int Atomic.t;
      (** Monotone max published split depth — a locate starting
          point, never load-bearing for correctness. *)
  size : int Atomic.t;  (** Approximate binding count (see size_hint). *)
}

let default_buckets = 64

(* Beyond [max_extra] doublings the table refuses to split further
   (the bucket just grows) — at base >= 64 that is a 2^30-bucket
   ceiling, far past anything the service drives. *)
let max_extra = 24

let split_threshold = 8

(* Global mutation counters (tcm.metrics): the conflict-free feed
   behind [size_hint]-style monitoring — watching mutation rates never
   opens a transaction.  Lazy so programs that never touch a hashmap
   register nothing. *)
let m_inserts =
  lazy
    (Tcm_metrics.Core.Counter.create "tcm_hashmap_inserts_total"
       ~help:"Bindings inserted into transactional hashmaps.")

let m_removes =
  lazy
    (Tcm_metrics.Core.Counter.create "tcm_hashmap_removes_total"
       ~help:"Bindings removed from transactional hashmaps.")

let m_splits =
  lazy
    (Tcm_metrics.Core.Counter.create "tcm_hashmap_splits_total"
       ~help:"Incremental bucket splits performed by transactional hashmaps.")

(* Round up to a power of two so the masks work. *)
let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(* Target occupancy when sizing from an expected population: low
   single digits, comfortably under the split threshold. *)
let expect_occupancy = 4

let create ?buckets ?expect () =
  let requested =
    match (buckets, expect) with
    | Some b, _ -> b
    | None, Some e -> max default_buckets (e / expect_occupancy)
    | None, None -> default_buckets
  in
  let n = pow2_at_least (max 1 requested) 1 in
  {
    base = n;
    seg0 = Array.init n (fun _ -> Tvar.make (Items { depth = 0; items = [] }));
    segs = Array.init max_extra (fun _ -> Atomic.make [||]);
    seg_lock = Mutex.create ();
    depth_hint = Atomic.make 0;
    size = Atomic.make 0;
  }

let n_buckets t =
  Array.fold_left
    (fun acc s -> acc + Array.length (Atomic.get s))
    t.base t.segs

let depth t = Atomic.get t.depth_hint

let size_hint t = Atomic.get t.size

(* Finalizing multiplicative hash; keys are often sequential. *)
let hash k =
  let h = k * 0x9E3779B1 in
  h lxor (h lsr 16)

(* Segment number of global bucket index [b] (>= base): smallest s
   with b < base·2^s. *)
let seg_of t b =
  let s = ref 1 in
  while b >= t.base lsl !s do
    incr s
  done;
  !s

(** The bucket Tvar at global index [b]; only called on indices whose
    segment is known allocated (the home bucket of a located key, or a
    buddy after {!ensure_segment}). *)
let tvar_of t b =
  if b < t.base then t.seg0.(b)
  else begin
    let s = seg_of t b in
    let seg = Atomic.get t.segs.(s - 1) in
    seg.(b - (t.base lsl (s - 1)))
  end

(* Allocate (once) the segment containing index [b].  Buckets start
   [Fresh]; publication is a single [Atomic.set], so readers either
   see the whole segment or treat it as all-Fresh — both correct. *)
let ensure_segment t b =
  let s = seg_of t b in
  let cell = t.segs.(s - 1) in
  if Array.length (Atomic.get cell) = 0 then begin
    Mutex.lock t.seg_lock;
    if Array.length (Atomic.get cell) = 0 then
      Atomic.set cell
        (Array.init (t.base lsl (s - 1)) (fun _ -> Tvar.make Fresh));
    Mutex.unlock t.seg_lock
  end

(* Transactional bucket-state read that treats an unallocated segment
   as [Fresh] without materializing it: a key whose chain passes
   through a hole is still protected by the read of its real home
   bucket (any split that would move it writes that bucket). *)
let read_state tx t b =
  if b < t.base then Stm.read tx t.seg0.(b)
  else begin
    let s = seg_of t b in
    let seg = Atomic.get t.segs.(s - 1) in
    if Array.length seg = 0 then Fresh
    else Stm.read tx seg.(b - (t.base lsl (s - 1)))
  end

let locate_fuel = 2 * (max_extra + 2)

(** Walk key [h]'s bucket chain from level [j] to its home bucket:
    returns (index, depth, items).  [Fresh] ⇒ home is shallower; a
    live bucket that does not cover [h] (its depth-masked hash differs)
    ⇒ home is deeper.  Terminates under snapshot consistency (both
    backends are opaque); the fuel bound turns a violated invariant
    into a loud failure instead of a spin. *)
let rec locate tx t h j fuel =
  if fuel < 0 then failwith "Thashmap.locate: no progress (snapshot inconsistency?)";
  let j = if j < 0 then 0 else if j > max_extra then max_extra else j in
  let b = h land ((t.base lsl j) - 1) in
  match read_state tx t b with
  | Fresh -> locate tx t h (j - 1) (fuel - 1)
  | Items { depth; items } ->
      if depth <= j || h land ((t.base lsl depth) - 1) = b then (b, depth, items)
      else locate tx t h (j + 1) (fuel - 1)

(* Bucket probes: [List.assoc_opt], [mem_assoc] and [remove_assoc]
   with the key typed [int], so each step is an int compare instead of
   a call to the polymorphic [compare].  Same order, results and
   allocation as the Stdlib functions. *)
let rec assoc_opt (k : int) = function
  | [] -> None
  | (k', v) :: l -> if k' = k then Some v else assoc_opt k l

let rec mem_assoc (k : int) = function
  | [] -> false
  | (k', _) :: l -> k' = k || mem_assoc k l

let rec remove_assoc (k : int) = function
  | [] -> []
  | ((k', _) as kv) :: l -> if k' = k then l else kv :: remove_assoc k l

let find tx t k =
  let _, _, items = locate tx t (hash k) (Atomic.get t.depth_hint) locate_fuel in
  assoc_opt k items

let mem tx t k = find tx t k <> None

(* Monotone max on the depth hint; losing the race is fine (the hint
   only seeds locate). *)
let rec bump_depth t d =
  let cur = Atomic.get t.depth_hint in
  if d > cur && not (Atomic.compare_and_set t.depth_hint cur d) then bump_depth t d

(* Split bucket [b] (depth [d], contents [items]) inside the calling
   transaction: low half stays, high half moves to the buddy.  Both
   buckets enter the write set — the only Tvars a concurrent
   transaction can conflict with. *)
let split tx t b d items =
  let bit = t.base lsl d in
  let buddy = b + bit in
  ensure_segment t buddy;
  let bv = tvar_of t b and qv = tvar_of t buddy in
  let low, high = List.partition (fun (k, _) -> hash k land bit = 0) items in
  ignore (Stm.read_for_write tx bv);
  ignore (Stm.read_for_write tx qv);
  Stm.write tx bv (Items { depth = d + 1; items = low });
  Stm.write tx qv (Items { depth = d + 1; items = high });
  if Tcm_metrics.enabled () then
    Tcm_metrics.Core.Counter.incr (Lazy.force m_splits);
  bump_depth t (d + 1)

(* The size hint is maintained with plain atomic bumps at the point of
   the transactional write: an attempt that later aborts leaves its
   bump behind, so the hint is approximate under contention — exactly
   the trade that keeps reading it conflict-free. *)
let bump_size t delta c =
  ignore (Atomic.fetch_and_add t.size delta);
  if Tcm_metrics.enabled () then Tcm_metrics.Core.Counter.incr (Lazy.force c)

(** Insert or replace.  Inserting a fresh key conses onto the bucket
    without rebuilding it; only a replace pays the [remove_assoc]
    copy.  An insert that leaves the bucket at the split threshold
    first splits it (possibly repeatedly) so occupancy stays bounded
    as the map grows. *)
let add tx t k v =
  let h = hash k in
  let rec go () =
    let b, d, items = locate tx t h (Atomic.get t.depth_hint) locate_fuel in
    let present = mem_assoc k items in
    if (not present) && List.length items >= split_threshold && d < max_extra
    then begin
      split tx t b d items;
      go () (* the key now homes at depth d+1: re-locate. *)
    end
    else begin
      let items = if present then remove_assoc k items else items in
      let bv = tvar_of t b in
      ignore (Stm.read_for_write tx bv);
      Stm.write tx bv (Items { depth = d; items = (k, v) :: items });
      if not present then bump_size t 1 m_inserts
    end
  in
  go ()

(** [true] if the key was present.  Removing a missing key neither
    copies nor writes the bucket. *)
let remove tx t k =
  let h = hash k in
  let b, d, items = locate tx t h (Atomic.get t.depth_hint) locate_fuel in
  if mem_assoc k items then begin
    let bv = tvar_of t b in
    ignore (Stm.read_for_write tx bv);
    Stm.write tx bv (Items { depth = d; items = remove_assoc k items });
    bump_size t (-1) m_removes;
    true
  end
  else false

(** Atomically update one binding: [f None] inserts, [f (Some v)]
    replaces; returning [None] deletes.  The bucket is only rebuilt
    when the key was present, and a delete of an absent key writes
    nothing at all. *)
let update tx t k f =
  let h = hash k in
  let b, d, items = locate tx t h (Atomic.get t.depth_hint) locate_fuel in
  let old_v = assoc_opt k items in
  let rest =
    match old_v with None -> items | Some _ -> remove_assoc k items
  in
  match (f old_v, old_v) with
  | Some v, _ ->
      let bv = tvar_of t b in
      ignore (Stm.read_for_write tx bv);
      Stm.write tx bv (Items { depth = d; items = (k, v) :: rest });
      if old_v = None then bump_size t 1 m_inserts
  | None, Some _ ->
      let bv = tvar_of t b in
      ignore (Stm.read_for_write tx bv);
      Stm.write tx bv (Items { depth = d; items = rest });
      bump_size t (-1) m_removes
  | None, None -> ()

let fold_buckets tx t f acc =
  let acc = ref acc in
  let scan arr =
    Array.iter
      (fun bv ->
        match Stm.read tx bv with
        | Fresh -> ()
        | Items { items; _ } -> acc := f !acc items)
      arr
  in
  scan t.seg0;
  Array.iter (fun s -> scan (Atomic.get s)) t.segs;
  !acc

let length tx t = fold_buckets tx t (fun acc l -> acc + List.length l) 0

(** All bindings, sorted by key. *)
let bindings tx t =
  fold_buckets tx t (fun acc l -> List.rev_append l acc) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Bulk-load distinct keys into a {e freshly created, not yet
    published} map — no transactions: base buckets are stitched with
    {!Tvar.unsafe_init}, which is only sound before any concurrent
    transaction can observe the map.  The load goes entirely into the
    depth-0 table (no splits), so size the map with [~expect] when
    preloading large populations.
    @raise Invalid_argument if the map has ever been written. *)
let unsafe_preload t pairs =
  if Atomic.get t.size <> 0 || Atomic.get t.depth_hint <> 0 then
    invalid_arg "Thashmap.unsafe_preload: map not fresh";
  let acc = Array.make t.base [] in
  Array.iter
    (fun ((k, _) as kv) ->
      let b = hash k land (t.base - 1) in
      acc.(b) <- kv :: acc.(b))
    pairs;
  for b = 0 to t.base - 1 do
    match acc.(b) with
    | [] -> ()
    | items -> Tvar.unsafe_init t.seg0.(b) (Items { depth = 0; items })
  done;
  ignore (Atomic.fetch_and_add t.size (Array.length pairs))
