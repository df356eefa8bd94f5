(** Shared helpers for contention-manager implementations.

    Every manager instance carves its mutable state as slots of
    [Tcm_metrics.Plane], the repo's one cache-line-strided store.  All
    slot writes after
    [create] are plain int stores into a preallocated array, so the
    consult path ([resolve] plus the lifecycle hooks) allocates zero
    minor words for every manager in the zoo.  The two state shapes
    the managers actually need are built on top:

    - {!Prng}: a two-cell xorshift pseudo-random stream (the old
      [Splitmix] wrapper boxed an [Int64] per draw — one allocation
      per jittered backoff);
    - {!Table}: a generation-stamped bounded open-addressed int map
      (replacing the [Hashtbl]s in Kindergarten and Greedy-FT, whose
      inserts — and Kindergarten's per-commit [Hashtbl.reset] —
      allocated on the hot path).

    Slots are acquired once per manager instance (one instance per
    domain, created in the runtime's DLS initializer, which runs on
    the owning domain) and released automatically at that domain's
    exit. *)

open Tcm_stm

(* ------------------------------------------------------------------ *)
(* Deterministic, short-lived manager creation                         *)
(* ------------------------------------------------------------------ *)

module Plane = Tcm_metrics.Plane

(* The PRNG seed stream of an open [scoped] region on this domain. *)
let seeds_key : Splitmix.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let scoped ~seed f =
  let outer = Domain.DLS.get seeds_key in
  Domain.DLS.set seeds_key (Some (Splitmix.create seed));
  Fun.protect
    (fun () -> Plane.scoped f)
    ~finally:(fun () -> Domain.DLS.set seeds_key outer)

(* ------------------------------------------------------------------ *)
(* Slot-backed PRNG                                                    *)
(* ------------------------------------------------------------------ *)

(** Deterministic per-instance pseudo-random stream for jitter and coin
    flips, with its two words of state living in slot cells.  Every
    draw is plain int arithmetic on those cells — unlike the previous
    [Splitmix] wrapper, whose boxed [Int64] state allocated on each
    [next].  Seeded from a process-unique [Splitmix] stream at create
    time, or from the enclosing [scoped] seed (create-time allocation
    is fine; draw-time is not). *)
module Prng = struct
  type t = { arr : int array; ix : int }  (* state cells at ix, ix + 1 *)

  let seed_cells arr ix =
    let s =
      match Domain.DLS.get seeds_key with
      | Some s -> s
      | None -> Splitmix.create_self_seeded ()
    in
    let nonzero v d = if v = 0 then d else v in
    arr.(ix) <- nonzero (Int64.to_int (Splitmix.next s) land max_int) 0x9E3779B9;
    arr.(ix + 1) <- nonzero (Int64.to_int (Splitmix.next s) land max_int) 0x6C078965

  let in_slot (slot : Plane.slot) ix =
    let t = { arr = slot.arr; ix = slot.base + ix } in
    seed_cells t.arr t.ix;
    t

  let state_words = 2

  let create () = in_slot (Plane.acquire state_words) 0

  (* xorshift128+-style step over the two cells.  All-zero state is
     the only degenerate orbit and a nonzero seed can never reach it
     (each step's new pair is zero only if the old pair was). *)
  let next t =
    let a = t.arr and i = t.ix in
    let s0 = a.(i) and s1 = a.(i + 1) in
    let x = s1 lxor (s1 lsl 23) in
    let x = x lxor (x lsr 17) lxor s0 lxor (s0 lsr 26) in
    a.(i) <- s1;
    a.(i + 1) <- x;
    (x + s1) land max_int

  let int t bound = if bound <= 1 then 0 else next t mod bound
  let bool t = next t land 1 = 1
end

(* ------------------------------------------------------------------ *)
(* Generation-stamped bounded table                                    *)
(* ------------------------------------------------------------------ *)

(** A bounded open-addressed int->int map in slot cells, for per-enemy
    manager memory (Kindergarten's grudges, Greedy-FT's timeout
    grants).  Layout: one generation header cell, then [cap] entries
    of three cells (key, value, entry-generation); an entry is live
    iff its generation equals the header's, so {!reset} — "forget
    everything" — is a single int bump instead of a [Hashtbl.reset]
    (which allocated a fresh bucket array on every Kindergarten
    commit).  Lookups probe a bounded linear window; a full window
    evicts the oldest probe position.  Dropping a memory under
    pressure is benign — the managers are heuristics over advisory
    state, and a forgotten grudge merely re-runs the polite round. *)
module Table = struct
  type t = { arr : int array; base : int; cap : int }

  let probe_window = 8

  let words ~cap = 1 + (3 * cap)

  let in_slot (slot : Plane.slot) ~ix ~cap =
    if cap < probe_window || cap land (cap - 1) <> 0 then
      invalid_arg "Table.in_slot: cap must be a power of two >= probe_window";
    let t = { arr = slot.arr; base = slot.base + ix; cap } in
    (* Scrubbed cells carry generation 0; starting the header at 1
       makes them all stale without touching them. *)
    t.arr.(t.base) <- 1;
    t

  let create ~cap = in_slot (Plane.acquire (words ~cap)) ~ix:0 ~cap

  let reset t = t.arr.(t.base) <- t.arr.(t.base) + 1

  (* The probe loops below are top-level functions taking all their
     state as arguments: a local [let rec] capturing [t]/[key] would
     allocate its closure on every call, which is exactly the cost
     this module exists to eliminate. *)

  let entry t key k =
    t.base + 1 + (3 * (((key * 0x9E3779B1) + k) land (t.cap - 1)))

  let rec find_from t gen key k ~default =
    if k = probe_window then default
    else
      let e = entry t key k in
      if t.arr.(e + 2) = gen && t.arr.(e) = key then t.arr.(e + 1)
      else find_from t gen key (k + 1) ~default

  let find t key ~default = find_from t t.arr.(t.base) key 0 ~default

  let rec mem_from t gen key k =
    if k = probe_window then false
    else
      let e = entry t key k in
      (t.arr.(e + 2) = gen && t.arr.(e) = key) || mem_from t gen key (k + 1)

  let mem t key = mem_from t t.arr.(t.base) key 0

  let install t gen key value e =
    t.arr.(e) <- key;
    t.arr.(e + 1) <- value;
    t.arr.(e + 2) <- gen

  (* Claim the first stale hole, else evict probe 0. *)
  let rec claim_from t gen key value k =
    if k = probe_window then install t gen key value (entry t key 0)
    else
      let e = entry t key k in
      if t.arr.(e + 2) <> gen then install t gen key value e
      else claim_from t gen key value (k + 1)

  (* Update a live match first, so a stale hole earlier in the window
     cannot shadow an existing entry with a duplicate. *)
  let rec put_from t gen key value k =
    if k = probe_window then claim_from t gen key value 0
    else
      let e = entry t key k in
      if t.arr.(e + 2) = gen && t.arr.(e) = key then t.arr.(e + 1) <- value
      else put_from t gen key value (k + 1)

  let put t key value = put_from t t.arr.(t.base) key value 0
end

(* ------------------------------------------------------------------ *)
(* Backoff helpers                                                     *)
(* ------------------------------------------------------------------ *)

(** Truncated exponential backoff: [base * 2^n] capped, with up to
    [base]-sized jitter drawn from [prng]. *)
let exp_backoff ?(base = 16) ?(cap = 65_536) prng n =
  let n = min n 20 in
  let d = min cap (base * (1 lsl n)) in
  d + Prng.int prng (max 1 (d / 2))

(** Default decision for managers that do not care: defer briefly.
    Allocation-free — the verdict comes from {!Decision.backoff}'s
    flyweight table. *)
let brief_backoff prng = Decision.backoff ~usec:(16 + Prng.int prng 16)

(** A no-op lifecycle implementation managers can reuse. *)
module No_lifecycle = struct
  let begin_attempt _ _ = ()
  let opened _ _ = ()
  let committed _ _ = ()
  let aborted _ _ = ()
end
