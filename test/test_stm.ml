(** Tests for the STM substrate: transactional variables, transaction
    descriptors, the runtime's read/write/commit semantics (both
    backends), nesting, abort handling, statistics, and multi-domain
    atomicity stress. *)

open Tcm_stm

let rt_with name = Stm.create (Tcm_core.Registry.find_exn name)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Splitmix                                                            *)
(* ------------------------------------------------------------------ *)

let t_splitmix_deterministic () =
  let a = Splitmix.create 7 and b = Splitmix.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let t_splitmix_bounds () =
  let r = Splitmix.create 3 in
  for _ = 1 to 1000 do
    let v = Splitmix.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  check_int "bound 1 yields 0" 0 (Splitmix.int r 1);
  check_int "bound 0 yields 0" 0 (Splitmix.int r 0)

let t_splitmix_float () =
  let r = Splitmix.create 11 in
  for _ = 1 to 1000 do
    let v = Splitmix.float r in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let t_splitmix_bool_balanced () =
  let r = Splitmix.create 13 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Splitmix.bool r then incr trues
  done;
  check_bool "roughly balanced" true (!trues > 400 && !trues < 600)

(* ------------------------------------------------------------------ *)
(* Txn descriptors                                                     *)
(* ------------------------------------------------------------------ *)

let t_txn_lifecycle () =
  let t = Txn.new_attempt (Txn.new_shared ()) in
  check_bool "starts active" true (Txn.is_active t);
  check_bool "abort succeeds" true (Txn.try_abort t);
  check_bool "is aborted" true (Txn.is_aborted t);
  check_bool "second abort reports aborted" true (Txn.try_abort t);
  check_bool "commit after abort fails" false (Txn.try_commit t);
  check_int "abort counted once" 1 (Txn.abort_count t)

let t_txn_commit_blocks_abort () =
  let t = Txn.new_attempt (Txn.new_shared ()) in
  check_bool "commit succeeds" true (Txn.try_commit t);
  check_bool "abort after commit fails" false (Txn.try_abort t);
  check_bool "still committed" true (Txn.is_committed t)

let t_txn_timestamps_monotonic () =
  let a = Txn.new_shared () in
  let b = Txn.new_shared () in
  check_bool "later shared is younger" true (a.Txn.timestamp < b.Txn.timestamp)

let t_txn_shared_across_attempts () =
  let shared = Txn.new_shared () in
  let a1 = Txn.new_attempt shared in
  ignore (Txn.try_abort a1);
  let a2 = Txn.new_attempt shared in
  check_int "timestamp retained" (Txn.timestamp a1) (Txn.timestamp a2);
  check_int "abort count carried" 1 (Txn.abort_count a2);
  check_bool "distinct attempt ids" true (a1.Txn.attempt_id <> a2.Txn.attempt_id)

let t_txn_priority_ops () =
  let t = Txn.new_attempt (Txn.new_shared ()) in
  Txn.record_open t;
  Txn.record_open t;
  check_int "opens" 2 (Txn.open_count t);
  check_int "priority follows opens" 2 (Txn.priority t);
  Txn.add_priority t 5;
  check_int "explicit add" 7 (Txn.priority t)

let t_sentinel () =
  check_bool "sentinel committed" true (Txn.is_committed Txn.committed_sentinel);
  check_int "sentinel timestamp" 0 (Txn.timestamp Txn.committed_sentinel)

(* ------------------------------------------------------------------ *)
(* Tvar                                                                *)
(* ------------------------------------------------------------------ *)

let t_tvar_peek () =
  let v = Tvar.make 42 in
  check_int "initial" 42 (Tvar.peek v)

let t_tvar_ids_unique () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  check_bool "distinct ids" true (Tvar.id a <> Tvar.id b)

let new_attempt () = Txn.new_attempt (Txn.new_shared ())

let reader_id v txn =
  match Tvar.find_active_reader v txn with Some r -> r.Txn.attempt_id | None -> -1

(* The inline slot takes the first reader; a second live reader spills
   into the block.  Writers find readers in either place, dead entries
   are reclaimed in either place, and the block stays once installed. *)
let t_tvar_readers () =
  let v = Tvar.make 0 in
  let t1 = new_attempt () and t2 = new_attempt () and w = new_attempt () in
  Tvar.register_reader v t1;
  Tvar.register_reader v t1;
  (* idempotent *)
  check_int "one entry" 1 (Tvar.reader_entries v);
  check_bool "lone reader stays inline" false (Tvar.spilled v);
  Tvar.register_reader v t2;
  check_bool "second live reader spills" true (Tvar.spilled v);
  check_int "two entries" 2 (Tvar.reader_entries v);
  check_int "finds the spilled reader" t2.Txn.attempt_id (reader_id v t1);
  check_int "finds the inline reader" t1.Txn.attempt_id (reader_id v t2);
  check_int "writer scans inline first" t1.Txn.attempt_id (reader_id v w);
  ignore (Txn.try_abort t1);
  check_int "writer finds the spilled reader" t2.Txn.attempt_id (reader_id v w);
  ignore (Txn.try_abort t2);
  check_bool "dead readers skipped" true (Tvar.find_active_reader v w = None);
  (* Fill the inline slot, the three block slots and the overflow. *)
  let live = List.init 6 (fun _ -> new_attempt ()) in
  List.iter (Tvar.register_reader v) live;
  check_int "dead slots reclaimed, two overflow entries" 6 (Tvar.reader_entries v);
  let last = List.nth live 5 in
  List.iter (fun r -> if r != last then ignore (Txn.try_abort r)) live;
  check_int "writer finds the overflow reader" last.Txn.attempt_id (reader_id v w);
  ignore (Txn.try_abort last);
  Tvar.purge_readers v;
  check_int "purge clears inline, slots and overflow" 0 (Tvar.reader_entries v);
  check_bool "the block stays installed" true (Tvar.spilled v);
  (* A dead inline reader is reclaimed in place, without spilling. *)
  let u = Tvar.make 0 in
  let a1 = new_attempt () and a2 = new_attempt () in
  Tvar.register_reader u a1;
  ignore (Txn.try_abort a1);
  Tvar.register_reader u a2;
  check_bool "dead inline reader reclaimed without spilling" false (Tvar.spilled u);
  check_int "one entry after reclaim" 1 (Tvar.reader_entries u);
  check_int "the reclaiming reader is visible" a2.Txn.attempt_id (reader_id u w);
  ignore (Txn.try_abort a2);
  Tvar.purge_readers u;
  check_int "purge clears the inline slot" 0 (Tvar.reader_entries u);
  ignore (Txn.try_abort w)

(* Exact footprint, in minor words: [Gc.minor_words] reads the calling
   domain's allocation pointer, and each closure below is built before
   the first read. *)
let words f =
  let m0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. m0

(* A variable: record (5), locator cell (2), committed locator (5) and
   its generation (2), inline reader slot (2), spill cell (2). *)
let tvar_words = 18.

(* A spill block: record (3), three-slot array (4) and its cells (6),
   overflow cell (2). *)
let spill_words = 15.

let check_words = Alcotest.(check (float 0.))

let t_tvar_footprint () =
  let keep = ref (Tvar.make 0) in
  check_words "Tvar.make" tvar_words (words (fun () -> keep := Tvar.make 1));
  let v = !keep in
  check_words "unsafe_init allocates nothing" 0. (words (fun () -> Tvar.unsafe_init v 2));
  check_int "unsafe_init stores the value" 2 (Tvar.peek v);
  check_bool "a fresh variable has no block" false (Tvar.spilled v);
  let rs = Array.init 5 (fun _ -> new_attempt ()) in
  let reg i () = Tvar.register_reader v rs.(i) in
  check_words "first reader: inline, no allocation" 0. (words (reg 0));
  check_bool "still no block" false (Tvar.spilled v);
  check_words "second live reader installs the block" spill_words (words (reg 1));
  check_words "third reader: a block slot" 0. (words (reg 2));
  check_words "fourth reader: a block slot" 0. (words (reg 3));
  Array.iter (fun r -> ignore (Txn.try_abort r)) rs;
  check_words "dead slots reused, never a second block" 0. (words (reg 4));
  check_words "re-registration allocates nothing" 0. (words (reg 4));
  ignore (Txn.try_abort rs.(4))

let t_tvar_spill_on_demand () =
  let v = Tvar.make 0 in
  let rt = rt_with "greedy" in
  for i = 1 to 200 do
    Stm.atomically rt (fun tx ->
        let x = Stm.read tx v in
        if i land 1 = 0 then Stm.write tx v (x + 1))
  done;
  check_int "updates applied" 100 (Tvar.peek v);
  check_bool "successive lone visible readers never spill" false (Tvar.spilled v);
  let w = Tvar.make 0 in
  let tl2 = Stm.create ~backend:Stm.Tl2_backend (Tcm_core.Registry.find_exn "greedy") in
  for i = 1 to 200 do
    Stm.atomically tl2 (fun tx ->
        let x = Stm.read tx w in
        if i land 1 = 0 then Stm.write tx w (x + 1);
        if i mod 3 = 0 then Stm.modify tx w succ)
  done;
  check_int "tl2 updates applied" 166 (Tvar.peek w);
  check_bool "tl2 reads, writes and commits never spill" false (Tvar.spilled w)

(* ------------------------------------------------------------------ *)
(* Runtime: single-threaded semantics                                  *)
(* ------------------------------------------------------------------ *)

let t_read_write () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 1 in
  let r =
    Stm.atomically rt (fun tx ->
        let x = Stm.read tx v in
        Stm.write tx v (x + 10);
        Stm.read tx v)
  in
  check_int "read-your-writes" 11 r;
  check_int "committed" 11 (Tvar.peek v)

let t_modify_and_read_for_write () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 5 in
  Stm.atomically rt (fun tx -> Stm.modify tx v (fun x -> x * 3));
  check_int "modify" 15 (Tvar.peek v);
  let r = Stm.atomically rt (fun tx -> Stm.read_for_write tx v) in
  check_int "read_for_write" 15 r

let t_multiple_tvars () =
  let rt = rt_with "greedy" in
  let vars = Array.init 10 (fun i -> Tvar.make i) in
  Stm.atomically rt (fun tx -> Array.iter (fun v -> Stm.modify tx v (fun x -> x + 100)) vars);
  Array.iteri (fun i v -> check_int "each updated" (i + 100) (Tvar.peek v)) vars

let t_user_exception_aborts () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 1 in
  (try
     Stm.atomically rt (fun tx ->
         Stm.write tx v 99;
         failwith "boom")
   with Failure _ -> ());
  check_int "write discarded" 1 (Tvar.peek v);
  let s = Stm.stats rt in
  check_int "no commit" 0 s.Runtime.n_commits;
  check_int "one abort" 1 s.Runtime.n_aborts

let t_retry_now () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 0 in
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        Stm.write tx v !attempts;
        if !attempts < 3 then Stm.retry_now tx else !attempts)
  in
  check_int "ran three times" 3 r;
  check_int "only final attempt committed" 3 (Tvar.peek v)

let t_nested_flattens () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 0 in
  Stm.atomically rt (fun tx ->
      Stm.write tx v 1;
      (* The nested atomically reuses the enclosing transaction, so it
         sees the uncommitted write. *)
      let inner = Stm.atomically rt (fun tx' -> Stm.read tx' v) in
      check_int "nested sees outer write" 1 inner;
      Stm.write tx v (inner + 1));
  check_int "single commit" 2 (Tvar.peek v);
  check_int "one commit counted" 1 (Stm.stats rt).Runtime.n_commits

let t_stats_accumulate () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 0 in
  for _ = 1 to 5 do
    Stm.atomically rt (fun tx -> Stm.modify tx v succ)
  done;
  check_int "five commits" 5 (Stm.stats rt).Runtime.n_commits;
  check_int "value" 5 (Tvar.peek v)

let t_manager_name () =
  Alcotest.(check string) "exposed" "karma" (Stm.manager_name (rt_with "karma"))

let t_atomic_return_value () =
  let rt = rt_with "greedy" in
  Alcotest.(check string) "passes value through" "hello"
    (Stm.atomically rt (fun _ -> "hello"))

(* A transaction that only reads commits without touching anything. *)
let t_read_only () =
  let rt = rt_with "greedy" in
  let v = Tvar.make 3 in
  check_int "read-only" 3 (Stm.atomically rt (fun tx -> Stm.read tx v));
  check_int "still one commit" 1 (Stm.stats rt).Runtime.n_commits

(* The allocation floor of a transaction, counted exactly: its
   [Txn.shared] descriptor (6 words), the attempt record (5) and the
   attempt's two atomics (4).  Locators, logs and the context are
   reused, so a 1-write transaction allocates nothing else on either
   backend. *)
let t_commit_words () =
  List.iter
    (fun backend ->
      let rt = Stm.create ~backend (Tcm_core.Registry.find_exn "greedy") in
      let v = Tvar.make 0 in
      let body tx = Stm.write tx v 1 in
      let n = 10_000 in
      for _ = 1 to 100 do
        Stm.atomically rt body
      done;
      let m0 = Gc.minor_words () in
      for _ = 1 to n do
        Stm.atomically rt body
      done;
      let m1 = Gc.minor_words () in
      check_int
        (Printf.sprintf "minor words of %d 1-write commits (%s)" n (Stm.backend_name backend))
        (15 * n)
        (int_of_float (m1 -. m0)))
    Stm.all_backends

(* ------------------------------------------------------------------ *)
(* Runtime: concurrency                                                *)
(* ------------------------------------------------------------------ *)

let conservation_run manager_name =
  let rt = rt_with manager_name in
  let a = Tvar.make 500 and b = Tvar.make 500 in
  let n_domains = 4 and iters = 250 in
  let doms =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Splitmix.create (d + 1) in
            for _ = 1 to iters do
              let amt = 1 + Splitmix.int rng 5 in
              Stm.atomically rt (fun tx ->
                  let x = Stm.read tx a in
                  Stm.write tx a (x - amt);
                  Stm.write tx b (Stm.read tx b + amt))
            done))
  in
  List.iter Domain.join doms;
  check_int
    (Printf.sprintf "conservation under %s" manager_name)
    1000
    (Tvar.peek a + Tvar.peek b);
  check_int "all committed" (n_domains * iters) (Stm.stats rt).Runtime.n_commits

let t_snapshot_isolation () =
  (* Writers keep x + y constant; concurrent readers snapshot both and
     must never observe a broken invariant — the classic isolation
     check for visible reads. *)
  let rt = rt_with "greedy" in
  let x = Tvar.make 500 and y = Tvar.make 500 in
  let violations = Atomic.make 0 in
  let stop = Atomic.make false in
  let writer d =
    Domain.spawn (fun () ->
        let rng = Splitmix.create (d + 3) in
        for _ = 1 to 400 do
          let amt = 1 + Splitmix.int rng 20 in
          Stm.atomically rt (fun tx ->
              let vx = Stm.read tx x in
              Stm.write tx x (vx - amt);
              Stm.write tx y (Stm.read tx y + amt))
        done)
  in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let sum = Stm.atomically rt (fun tx -> Stm.read tx x + Stm.read tx y) in
          if sum <> 1000 then Atomic.incr violations
        done)
  in
  let ws = [ writer 1; writer 2 ] in
  List.iter Domain.join ws;
  Atomic.set stop true;
  Domain.join reader;
  check_int "no isolation violations" 0 (Atomic.get violations);
  check_int "final sum conserved" 1000 (Tvar.peek x + Tvar.peek y)

let t_check_and_retry_wait () =
  let rt = rt_with "greedy" in
  let gate = Tvar.make false in
  let results = Tvar.make 0 in
  let waiter =
    Domain.spawn (fun () ->
        Stm.atomically rt (fun tx ->
            Stm.check tx (Stm.read tx gate);
            Stm.modify tx results succ))
  in
  (* The waiter blocks until the gate opens. *)
  Unix.sleepf 0.02;
  check_int "not yet" 0 (Tvar.peek results);
  Stm.atomically rt (fun tx -> Stm.write tx gate true);
  Domain.join waiter;
  check_int "ran once the gate opened" 1 (Tvar.peek results)

let t_check_true_is_noop () =
  let rt = rt_with "greedy" in
  let v =
    Stm.atomically rt (fun tx ->
        Stm.check tx true;
        42)
  in
  check_int "passes through" 42 v

let t_conservation_greedy () = conservation_run "greedy"
let t_conservation_karma () = conservation_run "karma"
let t_conservation_aggressive () = conservation_run "aggressive"
let t_conservation_polka () = conservation_run "polka"

let t_counter_exact () =
  let rt = rt_with "greedy" in
  let c = Tvar.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              Stm.atomically rt (fun tx -> Stm.modify tx c succ)
            done))
  in
  List.iter Domain.join doms;
  check_int "no lost updates" 2000 (Tvar.peek c)

let t_disjoint_domains () =
  let rt = rt_with "greedy" in
  let vars = Array.init 4 (fun _ -> Tvar.make 0) in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 300 do
              Stm.atomically rt (fun tx -> Stm.modify tx vars.(d) succ)
            done))
  in
  List.iter Domain.join doms;
  Array.iter (fun v -> check_int "disjoint counters exact" 300 (Tvar.peek v)) vars

(* ------------------------------------------------------------------ *)
(* Locator pool (PR 4: allocation-free write path)                     *)
(* ------------------------------------------------------------------ *)

let t_pool_reuse_lifo () =
  let p = Tvar.domain_pool () in
  let owner = Txn.new_attempt (Txn.new_shared ()) in
  let l1 = Tvar.take_locator p ~owner ~old_v:1 ~new_v:2 in
  let g1 = Tvar.locator_gen l1 in
  ignore (Txn.try_commit owner);
  (* Owner decided + never published: recyclable. *)
  check_bool "recycled" true (Tvar.recycle_locator p l1);
  let l2 = Tvar.take_locator p ~owner ~old_v:3 ~new_v:4 in
  check_bool "freelist is LIFO: same locator back" true (l2 == l1);
  check_bool "reported as a hit" true (Tvar.last_take_hit p);
  (* Two-phase seqlock: odd while the refill stores are in flight,
     back to even once the incarnation is complete. *)
  check_int "generation bumped twice per reuse" (g1 + 2) (Tvar.locator_gen l2);
  check_bool "generation even after refill" true
    (Tvar.gen_stable (Tvar.locator_gen l2));
  check_int "fields refilled" 3 l2.Tvar.old_v;
  check_int "tentative value preset" 4 l2.Tvar.new_v

let t_pool_hazard_blocks_reuse () =
  let p = Tvar.domain_pool () in
  let owner = Txn.new_attempt (Txn.new_shared ()) in
  ignore (Txn.try_commit owner);
  let l = Tvar.take_locator p ~owner ~old_v:1 ~new_v:2 in
  let g = Tvar.locator_gen l in
  check_bool "recycled" true (Tvar.recycle_locator p l);
  (* A published hazard freezes the incarnation: the pop must drop the
     held candidate, never hand it back. *)
  Tvar.protect p l;
  let l' = Tvar.take_locator p ~owner ~old_v:5 ~new_v:6 in
  check_bool "held locator not reused" true (not (l' == l));
  check_int "held incarnation untouched" g (Tvar.locator_gen l);
  check_int "held fields untouched" 1 l.Tvar.old_v;
  Tvar.unprotect p;
  (* Dropped, not deferred: the slot was consumed by the scan. *)
  let l'' = Tvar.take_locator p ~owner ~old_v:7 ~new_v:8 in
  check_bool "dropped candidate stays dropped" true (not (l'' == l))

let t_pool_capacity_bounded () =
  let p = Tvar.domain_pool () in
  let owner = Txn.new_attempt (Txn.new_shared ()) in
  ignore (Txn.try_commit owner);
  (* Push fresh locators until the cap rejects one: retention is
     bounded, overflow is dropped for the GC rather than queued. *)
  let rejected = ref false in
  let pushes = ref 0 in
  while (not !rejected) && !pushes < 10_000 do
    incr pushes;
    let l = { Tvar.owner; old_v = 0; new_v = 0; gen = Atomic.make 0 } in
    if not (Tvar.recycle_locator p l) then rejected := true
  done;
  check_bool "cap rejects the overflow push" true !rejected;
  check_bool "freelist stays bounded" true (!pushes <= 65 && Tvar.pool_size p <= 64)

(* Hazard slots are unregistered when their domain exits: spawning and
   joining short-lived domains must not grow the registry (which every
   freelist pop scans) without bound. *)
let t_pool_hazard_registry_compacts () =
  (* Ensure this domain's slot exists before taking the baseline. *)
  ignore (Tvar.domain_pool ());
  let base = Tvar.hazard_slot_count () in
  for _ = 1 to 16 do
    Domain.join (Domain.spawn (fun () -> ignore (Tvar.domain_pool ())))
  done;
  check_int "dead domains' slots unregistered" base (Tvar.hazard_slot_count ())

(* Multi-domain ABA hammer: writers continuously displace and recycle
   locators on a shared pair while readers race them.  A reader that
   trusts a recycled locator's fields (the classic pooling ABA) would
   observe a torn pair and break the invariant a + b = 0. *)
let t_pool_aba_hammer_visible () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  (* Churn variables so writer pools constantly recycle. *)
  let churn = Array.init 8 (fun _ -> Tvar.make 0) in
  let rt = Stm.create (module Tcm_core.Greedy) in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let writer seed () =
    let rng = Splitmix.create seed in
    while not (Atomic.get stop) do
      Stm.atomically rt (fun tx ->
          let x = Stm.read tx a in
          Stm.write tx a (x + 1);
          Stm.write tx b (-(x + 1));
          let c = churn.(Splitmix.int rng (Array.length churn)) in
          Stm.write tx c x)
    done
  in
  let reader () =
    while not (Atomic.get stop) do
      let s = Stm.atomically rt (fun tx -> Stm.read tx a + Stm.read tx b) in
      if s <> 0 then Atomic.incr torn;
      (* Non-transactional peeks exercise the seqlock path too. *)
      ignore (Tvar.peek a)
    done
  in
  let doms =
    [
      Domain.spawn (writer 1);
      Domain.spawn (writer 2);
      Domain.spawn (writer 3);
      Domain.spawn (reader);
      Domain.spawn (reader);
    ]
  in
  Unix.sleepf 0.3;
  Atomic.set stop true;
  List.iter Domain.join doms;
  check_int "no torn reads through recycled locators" 0 (Atomic.get torn);
  check_int "final pair consistent" 0 (Tvar.peek a + Tvar.peek b)

(* ------------------------------------------------------------------ *)
(* TL2 backend                                                         *)
(* ------------------------------------------------------------------ *)

(* The same facade operations through the second runtime backend.  A
   tvar is bound to one backend for its lifetime, so every test below
   creates its variables fresh under a TL2 runtime. *)
let tl2_rt name = Stm.create ~backend:Stm.Tl2_backend (Tcm_core.Registry.find_exn name)

let t_tl2_read_write () =
  let rt = tl2_rt "greedy" in
  let v = Tvar.make 1 in
  let r =
    Stm.atomically rt (fun tx ->
        let x = Stm.read tx v in
        Stm.write tx v (x + 10);
        Stm.read tx v)
  in
  check_int "read-your-writes through the write buffer" 11 r;
  check_int "writeback visible to peek" 11 (Tvar.peek v)

let t_tl2_modify_and_read_for_write () =
  let rt = tl2_rt "greedy" in
  let v = Tvar.make 5 in
  Stm.atomically rt (fun tx -> Stm.modify tx v (fun x -> x * 3));
  check_int "modify" 15 (Tvar.peek v);
  let r = Stm.atomically rt (fun tx -> Stm.read_for_write tx v) in
  check_int "read_for_write" 15 r

let t_tl2_user_exception_aborts () =
  let rt = tl2_rt "greedy" in
  let v = Tvar.make 1 in
  (try
     Stm.atomically rt (fun tx ->
         Stm.write tx v 99;
         failwith "boom")
   with Failure _ -> ());
  check_int "buffered write discarded" 1 (Tvar.peek v);
  let s = Stm.stats rt in
  check_int "no commit" 0 s.Runtime.n_commits;
  check_int "one abort" 1 s.Runtime.n_aborts

let t_tl2_retry_now () =
  let rt = tl2_rt "greedy" in
  let v = Tvar.make 0 in
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        Stm.write tx v !attempts;
        if !attempts < 3 then Stm.retry_now tx else !attempts)
  in
  check_int "ran three times" 3 r;
  check_int "only final attempt committed" 3 (Tvar.peek v)

let t_tl2_version_clock () =
  let rt = tl2_rt "greedy" in
  let v = Tvar.make 0 in
  let v0 = Tl2.Internal.orec_version v in
  (* Read-only commit is the zero-CAS fast path: no version movement. *)
  ignore (Stm.atomically rt (fun tx -> Stm.read tx v));
  check_int "read-only commit leaves the stripe version" v0
    (Tl2.Internal.orec_version v);
  Stm.atomically rt (fun tx -> Stm.write tx v 1);
  check_bool "writing commit advances the stripe version" true
    (Tl2.Internal.orec_version v > v0)

(* Run [f] to a commit on another domain, deterministically in the
   middle of the calling transaction's attempt. *)
let enemy_commit rt f = Domain.join (Domain.spawn (fun () -> Stm.atomically rt f))

(* One scripted enemy: [enemy] commits on another domain after the
   attempt's read of [a]; [rest] finishes the attempt from that read.
   [final] is (a, b) after the commit. *)
type enemy_case = {
  name : string;
  enemy : Stm.tx -> int Tvar.t -> int Tvar.t -> unit;
  rest : Stm.tx -> int Tvar.t -> int Tvar.t -> int -> int;
  attempts : int;
  result : int;
  final : int * int;
}

let enemy_cases =
  [
    {
      name = "upgrade detects enemy commit";
      enemy = (fun tx a _ -> Stm.write tx a 2);
      rest =
        (fun tx a _ x ->
          Stm.write tx a (x + 10);
          Stm.read tx a);
      attempts = 2;
      result = 12;
      final = (12, 100);
    };
    {
      name = "extension keeps consistent snapshot";
      enemy = (fun tx _ b -> Stm.write tx b 200);
      rest = (fun tx _ b x -> x + Stm.read tx b);
      attempts = 1;
      result = 201;
      final = (1, 200);
    };
    {
      name = "torn snapshot aborted";
      enemy =
        (fun tx a b ->
          Stm.write tx a 2;
          Stm.write tx b 200);
      rest = (fun tx _ b x -> x + Stm.read tx b);
      attempts = 2;
      result = 202;
      final = (2, 200);
    };
    {
      name = "commit-time validation retries";
      enemy = (fun tx a _ -> Stm.write tx a 2);
      rest =
        (fun tx _ b x ->
          Stm.write tx b x;
          x);
      attempts = 2;
      result = 2;
      final = (2, 2);
    };
  ]

(* TL2 reads are invisible and validated against the version clock:
   a read of a stripe newer than the attempt's read stamp extends the
   read set if every earlier read still holds, and aborts the attempt
   otherwise; a writing commit re-checks its reads.  (On the locator
   backend the younger enemy would wait on the older visible reader,
   which is blocked in [Domain.join].) *)
let t_tl2_clock_validation c () =
  let rt = tl2_rt "greedy" in
  let a = Tvar.make 1 and b = Tvar.make 100 in
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx a in
        if !attempts = 1 then enemy_commit rt (fun tx' -> c.enemy tx' a b);
        c.rest tx a b x)
  in
  check_int "attempts" c.attempts !attempts;
  check_int "result" c.result r;
  check_int "final a" (fst c.final) (Tvar.peek a);
  check_int "final b" (snd c.final) (Tvar.peek b)

let t_tl2_counter_exact () =
  let rt = tl2_rt "greedy" in
  let c = Tvar.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              Stm.atomically rt (fun tx -> Stm.modify tx c succ)
            done))
  in
  List.iter Domain.join doms;
  check_int "no lost updates under commit-time locking" 2000 (Tvar.peek c)

let t_tl2_snapshot_isolation () =
  (* Same invariant as the locator test: clock-validated reads must
     never observe x + y off its conserved total, even though TL2
     readers take no locks and register nowhere. *)
  let rt = tl2_rt "greedy" in
  let x = Tvar.make 500 and y = Tvar.make 500 in
  let violations = Atomic.make 0 in
  let stop = Atomic.make false in
  let writer d =
    Domain.spawn (fun () ->
        let rng = Splitmix.create (d + 3) in
        for _ = 1 to 400 do
          let amt = 1 + Splitmix.int rng 20 in
          Stm.atomically rt (fun tx ->
              let vx = Stm.read tx x in
              Stm.write tx x (vx - amt);
              Stm.write tx y (Stm.read tx y + amt))
        done)
  in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let sum = Stm.atomically rt (fun tx -> Stm.read tx x + Stm.read tx y) in
          if sum <> 1000 then Atomic.incr violations
        done)
  in
  let ws = [ writer 1; writer 2 ] in
  List.iter Domain.join ws;
  Atomic.set stop true;
  Domain.join reader;
  check_int "no isolation violations" 0 (Atomic.get violations);
  check_int "final sum conserved" 1000 (Tvar.peek x + Tvar.peek y)

let t_tl2_lock_steal () =
  (* A fabricated enemy holds the stripe for [v]; an aggressive-managed
     transaction must execute the Abort_other verdict as a lock steal:
     the enemy ends up aborted and the commit goes through. *)
  let rt = tl2_rt "aggressive" in
  let v = Tvar.make 0 in
  let enemy = Txn.new_attempt (Txn.new_shared ()) in
  Tl2.Internal.lock_for_test v enemy;
  Stm.atomically rt (fun tx -> Stm.write tx v 7);
  check_int "commit went through over the held lock" 7 (Tvar.peek v);
  check_bool "enemy was aborted by the steal" true (Txn.is_aborted enemy);
  Tl2.Internal.unlock_for_test v enemy

let t_tl2_dead_owner_lock_is_free () =
  (* A lock whose owner already aborted is free for the taking without
     consulting the manager — the timid manager (always Abort_self)
     would otherwise livelock here. *)
  let rt = tl2_rt "timid" in
  let v = Tvar.make 0 in
  let enemy = Txn.new_attempt (Txn.new_shared ()) in
  Tl2.Internal.lock_for_test v enemy;
  check_bool "enemy marked dead" true (Txn.try_abort enemy);
  Stm.atomically rt (fun tx -> Stm.write tx v 3);
  check_int "dead-owner lock reclaimed" 3 (Tvar.peek v);
  Tl2.Internal.unlock_for_test v enemy

(* The tcm.obs ledger rides both backends: the commits and aborts it
   attributes to the (backend, manager) family under forced conflicts
   must equal the runtime's own stats and the family's metric series,
   and its waits the [tcm_wait_duration] histogram — one probe call per
   lifecycle point feeds them all. *)
let obs_ledger_run backend backend_name =
  Tcm_obs.reset ();
  Tcm_metrics.enable ();
  let rt = Stm.create ~backend (Tcm_core.Registry.find_exn "karma") in
  let c = Tvar.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              Stm.atomically rt (fun tx -> Stm.modify tx c succ)
            done))
  in
  List.iter Domain.join doms;
  Tcm_metrics.disable ();
  let stats = Stm.stats rt in
  let mine =
    List.filter
      (fun (r : Tcm_obs.Ledger.row) ->
        r.backend = backend_name && r.manager = "karma" && r.runtime = "live")
      (Tcm_obs.Ledger.rows ())
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 mine in
  let open Tcm_metrics in
  let snap = snapshot () in
  let labels = [ ("backend", backend_name); ("manager", "karma"); ("runtime", "live") ] in
  let series name = Snapshot.counter_value snap ~name ~labels in
  let waits = Snapshot.hist_value snap ~name:Conventions.n_wait ~labels in
  let who what = Printf.sprintf "ledger %s (%s)" what backend_name in
  check_int (who "commits = runtime commits") stats.Runtime.n_commits
    (sum (fun r -> r.commits));
  check_int (who "aborts = runtime aborts") stats.Runtime.n_aborts (sum (fun r -> r.aborts));
  check_int (who "commits = tcm_commits_total") (series Conventions.n_commits)
    (sum (fun r -> r.commits));
  check_int (who "aborts = tcm_aborts_total") (series Conventions.n_aborts)
    (sum (fun r -> r.aborts));
  check_int (who "waits = tcm_wait_duration count")
    (Option.fold ~none:0 ~some:Snapshot.hist_count waits)
    (sum (fun r -> r.waits));
  check_int (who "wait cost = tcm_wait_duration sum")
    (Option.fold ~none:0 ~some:Snapshot.hist_sum waits)
    (sum (fun r -> r.wait_cost));
  check_int "counter exact" 800 (Tvar.peek c)

let t_obs_ledger_locator () = obs_ledger_run Stm.Locator "locator"

(* [pp_stats] prints every counter of the snapshot, in field order. *)
let t_pp_stats_format () =
  let s =
    {
      Runtime.n_commits = 1;
      n_aborts = 2;
      n_conflicts = 3;
      n_enemy_aborts = 4;
      n_self_aborts = 5;
      n_blocks = 6;
      n_backoffs = 7;
    }
  in
  Alcotest.(check string)
    "pp_stats"
    "commits=1 aborts=2 conflicts=3 enemy-aborts=4 self-aborts=5 blocks=6 backoffs=7"
    (Format.asprintf "%a" Stm.pp_stats s)
let t_obs_ledger_tl2 () = obs_ledger_run Stm.Tl2_backend "tl2"

(* qcheck: arbitrary interleavings of single-threaded transactions on a
   register behave like plain assignments. *)
let prop_register_semantics =
  QCheck.Test.make ~name:"sequential register semantics" ~count:50
    QCheck.(small_list (int_bound 100))
    (fun writes ->
      let rt = rt_with "greedy" in
      let v = Tvar.make (-1) in
      List.iter (fun w -> Stm.atomically rt (fun tx -> Stm.write tx v w)) writes;
      let expect = match List.rev writes with [] -> -1 | last :: _ -> last in
      Tvar.peek v = expect)

let () =
  Alcotest.run "stm"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick t_splitmix_deterministic;
          Alcotest.test_case "int bounds" `Quick t_splitmix_bounds;
          Alcotest.test_case "float range" `Quick t_splitmix_float;
          Alcotest.test_case "bool balance" `Quick t_splitmix_bool_balanced;
        ] );
      ( "txn",
        [
          Alcotest.test_case "lifecycle" `Quick t_txn_lifecycle;
          Alcotest.test_case "commit blocks abort" `Quick t_txn_commit_blocks_abort;
          Alcotest.test_case "timestamps monotonic" `Quick t_txn_timestamps_monotonic;
          Alcotest.test_case "shared state across attempts" `Quick t_txn_shared_across_attempts;
          Alcotest.test_case "priority bookkeeping" `Quick t_txn_priority_ops;
          Alcotest.test_case "committed sentinel" `Quick t_sentinel;
        ] );
      ( "tvar",
        [
          Alcotest.test_case "peek" `Quick t_tvar_peek;
          Alcotest.test_case "unique ids" `Quick t_tvar_ids_unique;
          Alcotest.test_case "reader registration" `Quick t_tvar_readers;
          Alcotest.test_case "footprint" `Quick t_tvar_footprint;
          Alcotest.test_case "spill block on demand" `Quick t_tvar_spill_on_demand;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "read / write / read-your-writes" `Quick t_read_write;
          Alcotest.test_case "modify and read_for_write" `Quick t_modify_and_read_for_write;
          Alcotest.test_case "many tvars in one txn" `Quick t_multiple_tvars;
          Alcotest.test_case "user exception aborts" `Quick t_user_exception_aborts;
          Alcotest.test_case "retry_now reruns" `Quick t_retry_now;
          Alcotest.test_case "nested atomically flattens" `Quick t_nested_flattens;
          Alcotest.test_case "stats accumulate" `Quick t_stats_accumulate;
          Alcotest.test_case "pp_stats prints every counter" `Quick t_pp_stats_format;
          Alcotest.test_case "manager name" `Quick t_manager_name;
          Alcotest.test_case "return value" `Quick t_atomic_return_value;
          Alcotest.test_case "read-only transaction" `Quick t_read_only;
          QCheck_alcotest.to_alcotest prop_register_semantics;
          Alcotest.test_case "a commit allocates 15 words" `Quick t_commit_words;
        ] );
      ( "locator pool",
        [
          Alcotest.test_case "reuse is LIFO with a generation bump" `Quick t_pool_reuse_lifo;
          Alcotest.test_case "hazard blocks reuse" `Quick t_pool_hazard_blocks_reuse;
          Alcotest.test_case "capacity bounded" `Quick t_pool_capacity_bounded;
          Alcotest.test_case "hazard registry compacts on domain exit" `Quick
            t_pool_hazard_registry_compacts;
          Alcotest.test_case "ABA hammer (visible)" `Quick t_pool_aba_hammer_visible;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "check blocks until condition" `Quick t_check_and_retry_wait;
          Alcotest.test_case "check true is a no-op" `Quick t_check_true_is_noop;
          Alcotest.test_case "snapshot isolation under writers" `Quick t_snapshot_isolation;
          Alcotest.test_case "conservation (greedy)" `Quick t_conservation_greedy;
          Alcotest.test_case "conservation (karma)" `Quick t_conservation_karma;
          Alcotest.test_case "conservation (aggressive)" `Quick t_conservation_aggressive;
          Alcotest.test_case "conservation (polka)" `Quick t_conservation_polka;
          Alcotest.test_case "counter has no lost updates" `Quick t_counter_exact;
          Alcotest.test_case "disjoint domains never conflict" `Quick t_disjoint_domains;
        ] );
      ( "tl2",
        [
          Alcotest.test_case "read / write / read-your-writes" `Quick t_tl2_read_write;
          Alcotest.test_case "modify and read_for_write" `Quick
            t_tl2_modify_and_read_for_write;
          Alcotest.test_case "user exception aborts" `Quick t_tl2_user_exception_aborts;
          Alcotest.test_case "retry_now reruns" `Quick t_tl2_retry_now;
          Alcotest.test_case "version clock movement" `Quick t_tl2_version_clock;
          Alcotest.test_case "counter has no lost updates" `Quick t_tl2_counter_exact;
          Alcotest.test_case "snapshot isolation under writers" `Quick
            t_tl2_snapshot_isolation;
          Alcotest.test_case "lock steal executes Abort_other" `Quick t_tl2_lock_steal;
          Alcotest.test_case "dead-owner lock is free" `Quick t_tl2_dead_owner_lock_is_free;
        ] );
      ( "invisible validation",
        List.map
          (fun c -> Alcotest.test_case c.name `Quick (t_tl2_clock_validation c))
          enemy_cases );
      ( "obs",
        [
          Alcotest.test_case "ledger matches stats (locator)" `Quick
            t_obs_ledger_locator;
          Alcotest.test_case "ledger matches stats (tl2)" `Quick
            t_obs_ledger_tl2;
        ] );
    ]
