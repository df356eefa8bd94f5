(** Shared helpers for contention-manager implementations.

    The centre of gravity here is {!Cm_state}: a process-wide slab of
    flat [int array] storage from which every manager instance carves
    its mutable state as cache-line-strided slots.  The discipline
    mirrors the metrics shards and the PR-4 locator pool — all slab
    writes after [create] are plain int stores into a preallocated
    array, so the consult path ([resolve] plus the lifecycle hooks)
    allocates zero minor words for every manager in the zoo.  The two
    state shapes the managers actually need are built on top:

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
    exit, mirroring the PR-4 hazard-slot regression fix. *)

open Tcm_stm

(* ------------------------------------------------------------------ *)
(* The slab                                                            *)
(* ------------------------------------------------------------------ *)

module Cm_state = struct
  type slot = {
    arr : int array;
    base : int;
    words : int;
    mutable released : bool;
        (* Guards double-release: a slot freed explicitly must not be
           freed again by the domain-exit hook (a doubly-listed slot
           would be handed to two later managers, which then share
           state). *)
  }

  let line_words = 8 (* ints per 64-byte cache line *)

  (* Slot footprint: the payload rounded up to whole lines, plus one
     line of slack, so two adjacent slots never share a cache line —
     managers on different domains may be carved from one chunk. *)
  let stride_of words =
    (((words + line_words - 1) / line_words) * line_words) + line_words

  let chunk_words = 4_096

  (* One process-wide registry under a mutex.  Acquire/release happen
     once per manager instance per domain (plus domain exit), never on
     the consult path, so a mutex is plenty. *)
  type reg = {
    mutex : Mutex.t;
    free : (int, slot list) Hashtbl.t;  (* stride -> reusable slots *)
    mutable chunk : int array;
    mutable next : int;
    mutable live : int;
  }

  let reg =
    {
      mutex = Mutex.create ();
      free = Hashtbl.create 8;
      chunk = [||];
      next = 0;
      live = 0;
    }

  let scrub s = Array.fill s.arr s.base s.words 0

  let acquire_raw ~words =
    if words <= 0 then invalid_arg "Cm_state.acquire: words must be positive";
    let stride = stride_of words in
    Mutex.lock reg.mutex;
    let slot =
      match Hashtbl.find_opt reg.free stride with
      | Some (s :: rest) ->
          Hashtbl.replace reg.free stride rest;
          { arr = s.arr; base = s.base; words; released = false }
      | Some [] | None ->
          if reg.next + stride > Array.length reg.chunk then begin
            (* A line of slack at the chunk head keeps the first slot
               off the array-header line (same layout as the metrics
               shards). *)
            reg.chunk <- Array.make (max chunk_words (stride + line_words)) 0;
            reg.next <- line_words
          end;
          let base = reg.next in
          reg.next <- base + stride;
          { arr = reg.chunk; base; words; released = false }
    in
    reg.live <- reg.live + 1;
    Mutex.unlock reg.mutex;
    scrub slot;
    slot

  let release s =
    if not s.released then begin
      s.released <- true;
      scrub s;
      let stride = stride_of s.words in
      Mutex.lock reg.mutex;
      reg.live <- reg.live - 1;
      Hashtbl.replace reg.free stride
        (s :: Option.value (Hashtbl.find_opt reg.free stride) ~default:[]);
      Mutex.unlock reg.mutex
    end

  (* An open [scoped] region on this domain: where its slots go and
     where its PRNG seeds come from. *)
  type scope = { seeds : Splitmix.t; mutable slots : slot list }

  let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  (* Manager instances are per-domain and live as long as the domain:
     tie the slot's lifetime to the domain the way PR 4 ties hazard
     slots, so a spawned-and-joined domain leaves nothing behind.
     Inside [scoped], the scope owns the slot instead. *)
  let acquire ~words =
    let s = acquire_raw ~words in
    (match Domain.DLS.get scope_key with
    | Some sc -> sc.slots <- s :: sc.slots
    | None -> Domain.at_exit (fun () -> release s));
    s

  let scoped ~seed f =
    let outer = Domain.DLS.get scope_key in
    let sc = { seeds = Splitmix.create seed; slots = [] } in
    Domain.DLS.set scope_key (Some sc);
    Fun.protect f ~finally:(fun () ->
        Domain.DLS.set scope_key outer;
        List.iter release sc.slots)

  let live_slots () =
    Mutex.lock reg.mutex;
    let n = reg.live in
    Mutex.unlock reg.mutex;
    n

  let get s i = s.arr.(s.base + i)
  let set s i v = s.arr.(s.base + i) <- v
end

(* ------------------------------------------------------------------ *)
(* Slab-backed PRNG                                                    *)
(* ------------------------------------------------------------------ *)

(** Deterministic per-instance pseudo-random stream for jitter and coin
    flips, with its two words of state living in slab cells.  Every
    draw is plain int arithmetic on those cells — unlike the previous
    [Splitmix] wrapper, whose boxed [Int64] state allocated on each
    [next].  Seeded from a process-unique [Splitmix] stream at create
    time, or from the enclosing [Cm_state.scoped] seed (create-time
    allocation is fine; draw-time is not). *)
module Prng = struct
  type t = { arr : int array; ix : int }  (* state cells at ix, ix + 1 *)

  let seed_cells arr ix =
    let s =
      match Domain.DLS.get Cm_state.scope_key with
      | Some sc -> sc.Cm_state.seeds
      | None -> Splitmix.create_self_seeded ()
    in
    let nonzero v d = if v = 0 then d else v in
    arr.(ix) <- nonzero (Int64.to_int (Splitmix.next s) land max_int) 0x9E3779B9;
    arr.(ix + 1) <- nonzero (Int64.to_int (Splitmix.next s) land max_int) 0x6C078965

  let in_slot (slot : Cm_state.slot) ix =
    let t = { arr = slot.Cm_state.arr; ix = slot.Cm_state.base + ix } in
    seed_cells t.arr t.ix;
    t

  let state_words = 2

  let create () = in_slot (Cm_state.acquire ~words:state_words) 0

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

(** A bounded open-addressed int->int map in slab cells, for per-enemy
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

  let in_slot (slot : Cm_state.slot) ~ix ~cap =
    if cap < probe_window || cap land (cap - 1) <> 0 then
      invalid_arg "Table.in_slot: cap must be a power of two >= probe_window";
    let t = { arr = slot.Cm_state.arr; base = slot.Cm_state.base + ix; cap } in
    (* Scrubbed cells carry generation 0; starting the header at 1
       makes them all stale without touching them. *)
    t.arr.(t.base) <- 1;
    t

  let create ~cap = in_slot (Cm_state.acquire ~words:(words ~cap)) ~ix:0 ~cap

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
