(** Tests for the STM substrate: transactional variables, transaction
    descriptors, the runtime's read/write/commit semantics (both read
    modes), nesting, abort handling, statistics, and multi-domain
    atomicity stress. *)

open Tcm_stm

let rt_with ?config name = Stm.create ?config (Tcm_core.Registry.find_exn name)

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

let t_tvar_readers () =
  let v = Tvar.make 0 in
  let t1 = Txn.new_attempt (Txn.new_shared ()) in
  let t2 = Txn.new_attempt (Txn.new_shared ()) in
  Tvar.register_reader v t1;
  Tvar.register_reader v t1;
  (* idempotent *)
  Tvar.register_reader v t2;
  (match Tvar.find_active_reader v t1 with
  | Some r -> check_int "finds the other reader" t2.Txn.attempt_id r.Txn.attempt_id
  | None -> Alcotest.fail "expected an active reader");
  ignore (Txn.try_abort t2);
  check_bool "dead readers skipped" true (Tvar.find_active_reader v t1 = None);
  Tvar.purge_readers v;
  ignore (Txn.try_abort t1)

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

let t_max_attempts () =
  let config = { Runtime.default_config with max_attempts = Some 4 } in
  let rt = Stm.create ~config (module Tcm_core.Greedy) in
  let hits = ref 0 in
  check_bool "raises Too_many_attempts" true
    (try
       Stm.atomically rt (fun tx ->
           incr hits;
           Stm.retry_now tx)
     with Runtime.Too_many_attempts _ -> true);
  check_int "ran exactly max_attempts times" 4 !hits

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

let t_invisible_mode_semantics () =
  let config = { Runtime.default_config with read_mode = `Invisible } in
  let rt = Stm.create ~config (module Tcm_core.Greedy) in
  let v = Tvar.make 7 in
  let r =
    Stm.atomically rt (fun tx ->
        let a = Stm.read tx v in
        Stm.write tx v (a + 1);
        Stm.read tx v)
  in
  check_int "invisible read-your-writes" 8 r;
  check_int "committed" 8 (Tvar.peek v)

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

let t_concurrent_invisible () =
  let config = { Runtime.default_config with read_mode = `Invisible } in
  let rt = Stm.create ~config (module Tcm_core.Greedy) in
  let c = Tvar.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 300 do
              (* Write-path read: exact even with invisible readers. *)
              Stm.atomically rt (fun tx -> Stm.write tx c (Stm.read_for_write tx c + 1))
            done))
  in
  List.iter Domain.join doms;
  check_int "invisible mode, write-path counter" 1200 (Tvar.peek c)

(* ------------------------------------------------------------------ *)
(* Invisible-read validation                                           *)
(* ------------------------------------------------------------------ *)

let invisible_rt () =
  let config = { Runtime.default_config with read_mode = `Invisible } in
  Stm.create ~config (module Tcm_core.Greedy)

(* Run [f] to a commit on another domain, deterministically in the
   middle of the calling transaction's attempt. *)
let enemy_commit rt f = Domain.join (Domain.spawn (fun () -> Stm.atomically rt f))

let t_inv_upgrade_commits () =
  let rt = invisible_rt () in
  let v = Tvar.make 10 in
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx v in
        (* Read-then-write of the same variable: the acquire flips the
           read entry to its upgrade branch, which must validate. *)
        Stm.write tx v (x + 1);
        Stm.read tx v)
  in
  check_int "upgrade read-your-write" 11 r;
  check_int "single attempt" 1 !attempts;
  check_int "committed" 11 (Tvar.peek v)

let t_inv_upgrade_enemy () =
  let rt = invisible_rt () in
  let v = Tvar.make 1 in
  let first = ref true in
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx v in
        if !first then begin
          first := false;
          enemy_commit rt (fun tx' -> Stm.write tx' v 2)
        end;
        (* The upgrade acquire must notice the value it read is stale
           and abort this attempt rather than overwrite blindly. *)
        Stm.write tx v (x + 10);
        Stm.read tx v)
  in
  check_int "two attempts" 2 !attempts;
  check_int "built on the enemy's value" 12 r;
  check_int "committed" 12 (Tvar.peek v)

let t_inv_extension_consistent () =
  let rt = invisible_rt () in
  let a = Tvar.make 1 and b = Tvar.make 100 in
  let first = ref true in
  let attempts = ref 0 in
  let sum =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx a in
        if !first then begin
          first := false;
          enemy_commit rt (fun tx' -> Stm.write tx' b 200)
        end;
        (* [b]'s stamp moved past the watermark, so this read takes the
           slow path; [a] is untouched, so validation extends and the
           attempt survives with a consistent (pre-commit a, post-commit
           b) snapshot. *)
        x + Stm.read tx b)
  in
  check_int "extension keeps the attempt alive" 1 !attempts;
  check_int "sees the committed b" 201 sum

let t_inv_validation_failure () =
  let rt = invisible_rt () in
  let a = Tvar.make 1 and b = Tvar.make 100 in
  let first = ref true in
  let attempts = ref 0 in
  let sum =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx a in
        if !first then begin
          first := false;
          enemy_commit rt (fun tx' ->
              Stm.write tx' a 2;
              Stm.write tx' b 200)
        end;
        (* Reading [b] forces revalidation, which must notice [a]
           changed and abort instead of returning the torn 1 + 200. *)
        x + Stm.read tx b)
  in
  check_int "aborted the torn snapshot" 2 !attempts;
  check_int "consistent final snapshot" 202 sum

let t_inv_commit_validation () =
  let rt = invisible_rt () in
  let a = Tvar.make 5 in
  let first = ref true in
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx a in
        if !first then begin
          first := false;
          enemy_commit rt (fun tx' -> Stm.write tx' a 6)
        end;
        x)
  in
  check_int "retried after commit-time failure" 2 !attempts;
  check_int "returns the enemy's value" 6 r

(* Regression: commit publication writes stamps *before* the status
   CAS, so a reader can record an entry against a still-Active owner
   whose stamp cell already holds that owner's commit stamp.  The
   owner's later status flip then invalidates the entry without moving
   any stamp — validation must recheck such entries anyway instead of
   trusting the unchanged stamp (which would let the torn snapshot
   pass commit-time validation). *)
let t_inv_published_stamp_race () =
  let rt = invisible_rt () in
  let a = Tvar.make 100 in
  (* Hand-build an enemy frozen between publication and its status
     CAS: locator installed, commit stamp published, still Active. *)
  let enemy = Txn.new_attempt (Txn.new_shared ()) in
  Atomic.set a.Tvar.loc
    { Tvar.owner = enemy; old_v = 100; new_v = 200; gen = Atomic.make 0 };
  Tvar.bump_version a;
  Tvar.advance_stamp (Tvar.stamp_cell a) (Tvar.next_stamp ());
  let attempts = ref 0 in
  let r =
    Stm.atomically rt (fun tx ->
        incr attempts;
        (* The reader starts after the publication stamp was drawn, so
           the stamp sits at or below its watermark and can never move
           again for this commit. *)
        let x = Stm.read tx a in
        if !attempts = 1 then begin
          check_int "resolved the pre-commit value" 100 x;
          ignore (Txn.try_commit enemy)
        end;
        x)
  in
  check_int "caught the stamp-free status flip" 2 !attempts;
  check_int "returns the committed value" 200 r

let t_stamp_monotone () =
  let cell = Atomic.make 10 in
  Tvar.advance_stamp cell 5;
  check_int "lagging publication cannot move a stamp backward" 10 (Atomic.get cell);
  Tvar.advance_stamp cell 12;
  check_int "newer stamp still advances" 12 (Atomic.get cell)

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

(* Read-only commits in invisible mode skip publication entirely — but
   must still abort on a stale read set (deterministic regression for
   the fast path). *)
let t_read_only_fast_path_still_validates () =
  let rt = invisible_rt () in
  let a = Tvar.make 10 and b = Tvar.make 20 in
  let attempts = ref 0 in
  let sum =
    Stm.atomically rt (fun tx ->
        incr attempts;
        let x = Stm.read tx a in
        if !attempts = 1 then
          enemy_commit rt (fun tx' ->
              Stm.write tx' a 11;
              Stm.write tx' b 19);
        (* No writes: commit takes the validate-only fast path, which
           must notice [a] moved rather than publish the torn sum. *)
        x + Stm.read tx b)
  in
  check_int "fast path aborted the stale snapshot" 2 !attempts;
  check_int "second attempt sees a consistent pair" 30 sum

(* Multi-domain ABA hammer: writers continuously displace and recycle
   locators on a shared pair while readers race them.  A reader that
   trusts a recycled locator's fields (the classic pooling ABA) would
   observe a torn pair and break the invariant a + b = 0.  Run once
   per read mode — each mode homogeneous, since a runtime's conflict
   detection only covers peers of its own mode (visible writers drain
   reader slots; invisible writers publish stamps). *)
let pool_aba_hammer read_mode () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  (* Churn variables so writer pools constantly recycle. *)
  let churn = Array.init 8 (fun _ -> Tvar.make 0) in
  let rt =
    Stm.create
      ~config:{ Runtime.default_config with read_mode }
      (module Tcm_core.Greedy)
  in
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

let t_pool_aba_hammer_visible () = pool_aba_hammer `Visible ()
let t_pool_aba_hammer_invisible () = pool_aba_hammer `Invisible ()

(* ------------------------------------------------------------------ *)
(* TL2 backend                                                         *)
(* ------------------------------------------------------------------ *)

(* The same facade operations through the second runtime backend.  A
   tvar is bound to one backend for its lifetime, so every test below
   creates its variables fresh under a TL2 runtime. *)
let tl2_rt ?config name =
  Stm.create ?config ~backend:Stm.Tl2_backend (Tcm_core.Registry.find_exn name)

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

let t_tl2_max_attempts () =
  let config = { Runtime.default_config with max_attempts = Some 4 } in
  let rt = tl2_rt ~config "greedy" in
  let hits = ref 0 in
  (try
     Stm.atomically rt (fun tx ->
         incr hits;
         Stm.retry_now tx)
   with Runtime.Too_many_attempts _ -> ());
  check_int "gave up after the configured attempts" 4 !hits

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
    (Format.asprintf "%a" Runtime.pp_stats s)
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
        ] );
      ( "runtime",
        [
          Alcotest.test_case "read / write / read-your-writes" `Quick t_read_write;
          Alcotest.test_case "modify and read_for_write" `Quick t_modify_and_read_for_write;
          Alcotest.test_case "many tvars in one txn" `Quick t_multiple_tvars;
          Alcotest.test_case "user exception aborts" `Quick t_user_exception_aborts;
          Alcotest.test_case "retry_now reruns" `Quick t_retry_now;
          Alcotest.test_case "max_attempts enforced" `Quick t_max_attempts;
          Alcotest.test_case "nested atomically flattens" `Quick t_nested_flattens;
          Alcotest.test_case "stats accumulate" `Quick t_stats_accumulate;
          Alcotest.test_case "pp_stats prints every counter" `Quick t_pp_stats_format;
          Alcotest.test_case "manager name" `Quick t_manager_name;
          Alcotest.test_case "invisible-read semantics" `Quick t_invisible_mode_semantics;
          Alcotest.test_case "return value" `Quick t_atomic_return_value;
          Alcotest.test_case "read-only transaction" `Quick t_read_only;
          QCheck_alcotest.to_alcotest prop_register_semantics;
        ] );
      ( "invisible validation",
        [
          Alcotest.test_case "upgrade commits" `Quick t_inv_upgrade_commits;
          Alcotest.test_case "upgrade detects enemy commit" `Quick t_inv_upgrade_enemy;
          Alcotest.test_case "extension keeps consistent snapshot" `Quick
            t_inv_extension_consistent;
          Alcotest.test_case "torn snapshot aborted" `Quick t_inv_validation_failure;
          Alcotest.test_case "commit-time validation retries" `Quick t_inv_commit_validation;
          Alcotest.test_case "published stamp under active owner" `Quick
            t_inv_published_stamp_race;
          Alcotest.test_case "stamps are monotone" `Quick t_stamp_monotone;
        ] );
      ( "locator pool",
        [
          Alcotest.test_case "reuse is LIFO with a generation bump" `Quick t_pool_reuse_lifo;
          Alcotest.test_case "hazard blocks reuse" `Quick t_pool_hazard_blocks_reuse;
          Alcotest.test_case "capacity bounded" `Quick t_pool_capacity_bounded;
          Alcotest.test_case "hazard registry compacts on domain exit" `Quick
            t_pool_hazard_registry_compacts;
          Alcotest.test_case "read-only fast path still validates" `Quick
            t_read_only_fast_path_still_validates;
          Alcotest.test_case "ABA hammer (visible)" `Quick t_pool_aba_hammer_visible;
          Alcotest.test_case "ABA hammer (invisible)" `Quick t_pool_aba_hammer_invisible;
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
          Alcotest.test_case "invisible mode write-path counter" `Quick t_concurrent_invisible;
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
          Alcotest.test_case "max_attempts enforced" `Quick t_tl2_max_attempts;
        ] );
      ( "obs",
        [
          Alcotest.test_case "ledger matches stats (locator)" `Quick
            t_obs_ledger_locator;
          Alcotest.test_case "ledger matches stats (tl2)" `Quick
            t_obs_ledger_tl2;
        ] );
    ]
