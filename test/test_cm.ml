(** Decision-table tests for every contention manager: given fabricated
    transaction descriptors (older/younger, waiting or not, various
    priorities), each manager must return the verdicts its published
    description prescribes. *)

open Tcm_stm
open Tcm_core

let decision : Decision.t Alcotest.testable =
  Alcotest.testable Decision.pp (fun a b -> a = b)

(* Fabricate a pair (older, younger): timestamps are drawn from the
   global counter, so creation order gives priority order. *)
let fresh_pair () =
  let older = Txn.new_attempt (Txn.new_shared ()) in
  let younger = Txn.new_attempt (Txn.new_shared ()) in
  (older, younger)

let set_waiting t v = Atomic.set t.Txn.waiting v

let resolve (type a) (module M : Cm_intf.S with type t = a) (st : a) ~me ~other ~attempts =
  M.resolve st ~me ~other ~attempts

let check_abort_other name d = Alcotest.check decision name Decision.Abort_other d
let check_abort_self name d = Alcotest.check decision name Decision.Abort_self d

let is_backoff = function Decision.Backoff _ -> true | _ -> false
let is_block = function Decision.Block _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Greedy                                                              *)
(* ------------------------------------------------------------------ *)

let t_greedy_rules () =
  let st = Greedy.create () in
  let older, younger = fresh_pair () in
  check_abort_other "rule 1: older aborts younger"
    (resolve (module Greedy) st ~me:older ~other:younger ~attempts:0);
  Alcotest.check decision "rule 2: younger waits unboundedly"
    (Decision.Block { timeout_usec = None })
    (resolve (module Greedy) st ~me:younger ~other:older ~attempts:0);
  set_waiting older true;
  check_abort_other "rule 1: waiting enemies are aborted regardless of priority"
    (resolve (module Greedy) st ~me:younger ~other:older ~attempts:0)

let t_greedy_no_wait_cycle () =
  (* Whoever is older aborts; the relation is a strict total order on
     timestamps, so two transactions can never both be told to wait. *)
  let st = Greedy.create () in
  let a, b = fresh_pair () in
  let da = resolve (module Greedy) st ~me:a ~other:b ~attempts:0 in
  let db = resolve (module Greedy) st ~me:b ~other:a ~attempts:0 in
  Alcotest.(check bool) "at most one side waits" false (is_block da && is_block db)

(* Randomized greedy: the rank is drawn at the first attempt, kept by
   every retry of the same logical transaction, and orders conflicts
   strictly — exactly one side of any pair waits. *)
let t_rand_greedy_ranks () =
  let st = Randomized_greedy.create () in
  let a, b = fresh_pair () in
  Randomized_greedy.begin_attempt st a;
  Randomized_greedy.begin_attempt st b;
  let rank = Txn.cm_stamp a in
  Alcotest.(check bool) "rank drawn" true (rank <> Txn.no_cm_stamp);
  let retry = Txn.new_attempt a.Txn.shared in
  Randomized_greedy.begin_attempt st retry;
  Alcotest.(check int) "rank survives the abort" rank (Txn.cm_stamp retry);
  let da = resolve (module Randomized_greedy) st ~me:a ~other:b ~attempts:0 in
  let db = resolve (module Randomized_greedy) st ~me:b ~other:a ~attempts:0 in
  Alcotest.(check bool) "exactly one side waits" true (is_block da <> is_block db);
  let loser, winner = if is_block da then (a, b) else (b, a) in
  set_waiting winner true;
  check_abort_other "waiting enemies are aborted regardless of rank"
    (resolve (module Randomized_greedy) st ~me:loser ~other:winner ~attempts:0)

(* ------------------------------------------------------------------ *)
(* Greedy-FT                                                           *)
(* ------------------------------------------------------------------ *)

let t_greedy_ft_timeout_doubles () =
  let st = Greedy_ft.create () in
  let older, younger = fresh_pair () in
  (match resolve (module Greedy_ft) st ~me:younger ~other:older ~attempts:0 with
  | Decision.Block { timeout_usec = Some t } ->
      Alcotest.(check int) "initial grant" Greedy_ft.base_usec t
  | d -> Alcotest.failf "expected bounded block, got %a" Decision.pp d);
  (* The wait expired: abort the enemy... *)
  check_abort_other "expired wait aborts"
    (resolve (module Greedy_ft) st ~me:younger ~other:older ~attempts:1);
  (* ...and the next encounter with the same enemy gets double. *)
  match resolve (module Greedy_ft) st ~me:younger ~other:older ~attempts:0 with
  | Decision.Block { timeout_usec = Some t } ->
      Alcotest.(check int) "doubled grant" (2 * Greedy_ft.base_usec) t
  | d -> Alcotest.failf "expected doubled block, got %a" Decision.pp d

let t_greedy_ft_rule1_intact () =
  let st = Greedy_ft.create () in
  let older, younger = fresh_pair () in
  check_abort_other "older still aborts"
    (resolve (module Greedy_ft) st ~me:older ~other:younger ~attempts:0);
  set_waiting older true;
  check_abort_other "waiting enemies still aborted"
    (resolve (module Greedy_ft) st ~me:younger ~other:older ~attempts:0)

(* ------------------------------------------------------------------ *)
(* Aggressive / Timid / Randomized                                     *)
(* ------------------------------------------------------------------ *)

let t_aggressive () =
  let st = Aggressive.create () in
  let a, b = fresh_pair () in
  check_abort_other "always abort other"
    (resolve (module Aggressive) st ~me:b ~other:a ~attempts:0);
  check_abort_other "any attempts" (resolve (module Aggressive) st ~me:a ~other:b ~attempts:17)

let t_timid () =
  let st = Timid.create () in
  let a, b = fresh_pair () in
  check_abort_self "always abort self" (resolve (module Timid) st ~me:a ~other:b ~attempts:0)

let t_randomized_range () =
  let st = Randomized.create () in
  let a, b = fresh_pair () in
  let seen_abort = ref false and seen_backoff = ref false in
  for i = 0 to 63 do
    match resolve (module Randomized) st ~me:a ~other:b ~attempts:i with
    | Decision.Abort_other -> seen_abort := true
    | Decision.Backoff _ -> seen_backoff := true
    | d -> Alcotest.failf "unexpected verdict %a" Decision.pp d
  done;
  Alcotest.(check bool) "both outcomes occur" true (!seen_abort && !seen_backoff)

(* ------------------------------------------------------------------ *)
(* Polite (backoff)                                                    *)
(* ------------------------------------------------------------------ *)

let t_polite_backs_off_then_aborts () =
  let st = Polite.create () in
  let a, b = fresh_pair () in
  for i = 0 to Polite.max_tries - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "backoff at attempt %d" i)
      true
      (is_backoff (resolve (module Polite) st ~me:a ~other:b ~attempts:i))
  done;
  check_abort_other "aborts after max tries"
    (resolve (module Polite) st ~me:a ~other:b ~attempts:Polite.max_tries)

let t_polite_grows () =
  let st = Polite.create () in
  let a, b = fresh_pair () in
  let backoff i =
    match resolve (module Polite) st ~me:a ~other:b ~attempts:i with
    | Decision.Backoff { usec } -> usec
    | d -> Alcotest.failf "expected backoff, got %a" Decision.pp d
  in
  (* Exponential envelope: attempt 6 exceeds attempt 0's maximum jitter. *)
  Alcotest.(check bool) "grows" true (backoff 6 > backoff 0)

(* ------------------------------------------------------------------ *)
(* KillBlocked                                                         *)
(* ------------------------------------------------------------------ *)

let t_killblocked () =
  let st = Killblocked.create () in
  let a, b = fresh_pair () in
  set_waiting b true;
  check_abort_other "blocked enemies die"
    (resolve (module Killblocked) st ~me:a ~other:b ~attempts:0);
  set_waiting b false;
  Alcotest.(check bool) "otherwise backoff" true
    (is_backoff (resolve (module Killblocked) st ~me:a ~other:b ~attempts:0));
  check_abort_other "patience exhausted"
    (resolve (module Killblocked) st ~me:a ~other:b ~attempts:Killblocked.max_tries)

(* ------------------------------------------------------------------ *)
(* Kindergarten                                                        *)
(* ------------------------------------------------------------------ *)

let t_kindergarten_turns () =
  let st = Kindergarten.create () in
  let a, b = fresh_pair () in
  Alcotest.(check bool) "first meeting: polite backoff" true
    (is_backoff (resolve (module Kindergarten) st ~me:a ~other:b ~attempts:0));
  check_abort_self "after its rounds, yields by restarting"
    (resolve (module Kindergarten) st ~me:a ~other:b ~attempts:Kindergarten.rounds_per_turn);
  check_abort_other "second meeting with the same enemy: our turn"
    (resolve (module Kindergarten) st ~me:a ~other:b ~attempts:0)

let t_kindergarten_resets_on_commit () =
  let st = Kindergarten.create () in
  let a, b = fresh_pair () in
  ignore (resolve (module Kindergarten) st ~me:a ~other:b ~attempts:Kindergarten.rounds_per_turn);
  Kindergarten.committed st a;
  Alcotest.(check bool) "grudges forgotten" true
    (is_backoff (resolve (module Kindergarten) st ~me:a ~other:b ~attempts:0))

(* ------------------------------------------------------------------ *)
(* Timestamp                                                           *)
(* ------------------------------------------------------------------ *)

let t_timestamp () =
  let st = Timestamp.create () in
  let older, younger = fresh_pair () in
  check_abort_other "older kills younger"
    (resolve (module Timestamp) st ~me:older ~other:younger ~attempts:0);
  (match resolve (module Timestamp) st ~me:younger ~other:older ~attempts:0 with
  | Decision.Block { timeout_usec = Some t } ->
      Alcotest.(check int) "waits a quantum" Timestamp.quantum_usec t
  | d -> Alcotest.failf "expected quantum block, got %a" Decision.pp d);
  check_abort_other "presumed dead after max quanta"
    (resolve (module Timestamp) st ~me:younger ~other:older ~attempts:Timestamp.max_quanta)

(* ------------------------------------------------------------------ *)
(* Karma / Eruption / Polka                                            *)
(* ------------------------------------------------------------------ *)

let t_karma () =
  let st = Karma.create () in
  let a, b = fresh_pair () in
  Txn.add_priority b 5;
  Alcotest.(check bool) "poorer backs off" true
    (is_backoff (resolve (module Karma) st ~me:a ~other:b ~attempts:0));
  Txn.add_priority a 10;
  check_abort_other "richer aborts" (resolve (module Karma) st ~me:a ~other:b ~attempts:0)

let t_karma_attempts_accumulate () =
  let st = Karma.create () in
  let a, b = fresh_pair () in
  Txn.add_priority b 3;
  (* priority 0 + attempts 4 > 3: persistence pays the difference. *)
  check_abort_other "attempts count as karma"
    (resolve (module Karma) st ~me:a ~other:b ~attempts:4)

let t_eruption_pressure () =
  let st = Eruption.create () in
  let a, b = fresh_pair () in
  Txn.add_priority a 4;
  Txn.add_priority b 10;
  let before = Txn.priority b in
  Alcotest.(check bool) "blocked: backoff" true
    (is_backoff (resolve (module Eruption) st ~me:a ~other:b ~attempts:0));
  Alcotest.(check int) "pressure transferred" (before + 4) (Txn.priority b);
  Alcotest.(check bool) "second round still backoff" true
    (is_backoff (resolve (module Eruption) st ~me:a ~other:b ~attempts:1));
  Alcotest.(check int) "no repeat transfer" (before + 4) (Txn.priority b)

let t_polka () =
  let st = Polka.create () in
  let a, b = fresh_pair () in
  Txn.add_priority b 3;
  Alcotest.(check bool) "backs off while gap unpaid" true
    (is_backoff (resolve (module Polka) st ~me:a ~other:b ~attempts:0));
  check_abort_other "aborts after gap backoffs"
    (resolve (module Polka) st ~me:a ~other:b ~attempts:3);
  Txn.add_priority a 10;
  check_abort_other "richer aborts immediately"
    (resolve (module Polka) st ~me:a ~other:b ~attempts:1)

(* ------------------------------------------------------------------ *)
(* Sto-adaptive                                                        *)
(* ------------------------------------------------------------------ *)

(* Drive a stamped fight-phase transaction the way the runtime would:
   a fresh attempt followed by enough opens to cross the threshold. *)
let sto_warm st me =
  Sto_adaptive.begin_attempt st me;
  for _ = 1 to Sto_adaptive.ts_threshold do
    Sto_adaptive.opened st me
  done

let t_sto_timid () =
  let st = Sto_adaptive.create () in
  let older, younger = fresh_pair () in
  Sto_adaptive.begin_attempt st older;
  (* Below the open threshold the transaction concedes every conflict,
     seniority notwithstanding. *)
  check_abort_self "timid: older concedes too"
    (resolve (module Sto_adaptive) st ~me:older ~other:younger ~attempts:0);
  check_abort_self "timid: younger concedes"
    (resolve (module Sto_adaptive) st ~me:younger ~other:older ~attempts:0);
  for _ = 1 to Sto_adaptive.ts_threshold - 1 do
    Sto_adaptive.opened st older
  done;
  check_abort_self "still timid one open short of the threshold"
    (resolve (module Sto_adaptive) st ~me:older ~other:younger ~attempts:0)

let t_sto_phase_transition () =
  let st = Sto_adaptive.create () in
  let me, _ = fresh_pair () in
  Sto_adaptive.begin_attempt st me;
  Alcotest.(check bool) "no stamp while timid" true
    (Txn.cm_stamp me = Txn.no_cm_stamp);
  for _ = 1 to Sto_adaptive.ts_threshold do
    Sto_adaptive.opened st me
  done;
  Alcotest.(check bool) "threshold crossing buys a stamp" true
    (Txn.cm_stamp me <> Txn.no_cm_stamp);
  let stamp = Txn.cm_stamp me in
  Sto_adaptive.opened st me;
  Alcotest.(check int) "stamp is stable across further opens" stamp
    (Txn.cm_stamp me);
  (* A restart begins timid again. *)
  Sto_adaptive.begin_attempt st me;
  Alcotest.(check bool) "restart drops the stamp" true
    (Txn.cm_stamp me = Txn.no_cm_stamp)

let t_sto_fight_verdicts () =
  let st = Sto_adaptive.create () in
  let me, other = fresh_pair () in
  sto_warm st me;
  check_abort_other "stamped vs timid enemy: abort it"
    (resolve (module Sto_adaptive) st ~me ~other ~attempts:0);
  Txn.set_cm_stamp other (Txn.cm_stamp me + 1);
  check_abort_other "stamped vs younger stamp: abort it"
    (resolve (module Sto_adaptive) st ~me ~other ~attempts:0);
  Txn.set_cm_stamp other (Txn.cm_stamp me - 1);
  Alcotest.(check bool) "stamped vs older stamp: bounded wait" true
    (is_backoff (resolve (module Sto_adaptive) st ~me ~other ~attempts:0));
  check_abort_self "cycle-wait exhausted: concede"
    (resolve (module Sto_adaptive) st ~me ~other
       ~attempts:Sto_adaptive.max_fight_rounds);
  ignore (Txn.try_abort other);
  check_abort_other "dead enemies are cleared regardless of seniority"
    (resolve (module Sto_adaptive) st ~me ~other ~attempts:0)

let t_sto_succ_abort_cap () =
  let st = Sto_adaptive.create () in
  let me, other = fresh_pair () in
  Alcotest.(check int) "fresh instance" 0 (Sto_adaptive.succ_aborts st);
  for _ = 1 to Sto_adaptive.succ_aborts_max + 5 do
    Sto_adaptive.aborted st me
  done;
  Alcotest.(check int) "successive-abort run is capped"
    Sto_adaptive.succ_aborts_max
    (Sto_adaptive.succ_aborts st);
  (* The capped run bounds the fight-phase wait. *)
  sto_warm st me;
  Txn.set_cm_stamp other (Txn.cm_stamp me - 1);
  let bound =
    (Sto_adaptive.succ_aborts_max + 1) * Sto_adaptive.wait_usec_per_abort
  in
  for i = 0 to 63 do
    match resolve (module Sto_adaptive) st ~me ~other ~attempts:(i land 3) with
    | Decision.Backoff { usec } ->
        if usec < 1 || usec > bound then
          Alcotest.failf "wait %d outside [1, %d]" usec bound
    | d -> Alcotest.failf "expected backoff, got %a" Decision.pp d
  done;
  Sto_adaptive.committed st me;
  Alcotest.(check int) "commit ends the run" 0 (Sto_adaptive.succ_aborts st)

(* ------------------------------------------------------------------ *)
(* QueueOnBlock                                                        *)
(* ------------------------------------------------------------------ *)

let t_queue_on_block () =
  let st = Queue_on_block.create () in
  let a, b = fresh_pair () in
  Alcotest.(check bool) "waits FIFO-style" true
    (is_block (resolve (module Queue_on_block) st ~me:a ~other:b ~attempts:0));
  check_abort_other "defensive timeout"
    (resolve (module Queue_on_block) st ~me:a ~other:b ~attempts:Queue_on_block.max_waits)

let t_queue_on_block_unbounded () =
  let st = Queue_on_block.Unbounded.create () in
  let a, b = fresh_pair () in
  Alcotest.check decision "waits forever, however often asked"
    Decision.block_forever
    (resolve (module Queue_on_block.Unbounded) st ~me:a ~other:b ~attempts:1_000);
  Alcotest.(check bool) "kept out of the registry" true
    (Registry.find Queue_on_block.Unbounded.name = None)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let t_registry_finds_all () =
  List.iter
    (fun name ->
      match Registry.find name with
      | Some m -> Alcotest.(check string) "name matches" name (Cm_intf.name m)
      | None -> Alcotest.failf "manager %s not found" name)
    Registry.names

let t_registry_count () =
  Alcotest.(check int) "14 managers shipped" 14 (List.length Registry.all)

let t_registry_case_insensitive () =
  Alcotest.(check string) "case folded" "greedy" (Cm_intf.name (Registry.find_exn "GREEDY"))

let t_registry_unknown () =
  match Registry.find "nonsense" with
  | None -> ()
  | Some _ -> Alcotest.fail "found nonsense manager"

let t_registry_unknown_exn () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Registry.find_exn "nonsense");
       false
     with Invalid_argument _ -> true)

(* Completeness: every manager module in lib/core is registered under
   its own [name].  This list is the point — adding a manager module
   without registering it must fail here, which [Registry.names]-driven
   round-trips cannot catch. *)
let t_registry_complete () =
  let modules : Cm_intf.factory list =
    [
      (module Greedy);
      (module Greedy_ft);
      (module Aggressive);
      (module Polite);
      (module Randomized);
      (module Timid);
      (module Killblocked);
      (module Kindergarten);
      (module Timestamp);
      (module Karma);
      (module Eruption);
      (module Polka);
      (module Queue_on_block);
      (module Sto_adaptive);
    ]
  in
  Alcotest.(check int) "test list covers the registry" (List.length Registry.all)
    (List.length modules);
  List.iter
    (fun m ->
      let name = Cm_intf.name m in
      match Registry.find name with
      | None -> Alcotest.failf "module %s is not registered" name
      | Some found ->
          Alcotest.(check string) "registered under its own name" name
            (Cm_intf.name found))
    modules

let t_registry_names_unique () =
  let sorted = List.sort compare Registry.names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | Some n -> Alcotest.failf "duplicate registry name %S" n
  | None -> ()

let t_paper_lineup () =
  Alcotest.(check (list string)) "figure line-up"
    [ "greedy"; "karma"; "eruption"; "aggressive"; "backoff" ]
    (List.map Cm_intf.name Registry.paper_figures)

(* ------------------------------------------------------------------ *)
(* Cross-backend verdict agreement                                     *)
(* ------------------------------------------------------------------ *)

(* Both runtime backends take their verdicts through one conflict
   adapter ([Runtime_intf.consult]): unpack the per-domain manager
   instance and ask it to resolve.  The manager zoo is the experiment
   under test in this repo, so two domains' instances must agree
   verdict-for-verdict on an identical conflict history — otherwise a
   locator-vs-TL2 benchmark difference could be a contention-policy
   difference in disguise, or a manager could carry state across
   instances.  The duel below scripts both priority directions,
   escalating attempt counts, and the waiting flag (the input
   Greedy-family rule 1 keys on); it is replayed against two fresh
   manager instances, one per backend's domain (stateful managers —
   Karma, Polite, Kindergarten — advance their state identically when
   fed identical inputs). *)

type duel_step = { me_older : bool; attempts : int; other_waiting : bool }

let duel_script =
  [
    { me_older = true; attempts = 0; other_waiting = false };
    { me_older = false; attempts = 0; other_waiting = false };
    { me_older = false; attempts = 1; other_waiting = false };
    { me_older = false; attempts = 2; other_waiting = true };
    { me_older = true; attempts = 1; other_waiting = true };
    { me_older = false; attempts = 5; other_waiting = false };
    { me_older = true; attempts = 0; other_waiting = false };
    { me_older = false; attempts = 9; other_waiting = false };
  ]

let replay consult ~older ~younger =
  List.map
    (fun { me_older; attempts; other_waiting } ->
      let me, other = if me_older then (older, younger) else (younger, older) in
      set_waiting other other_waiting;
      let d = consult ~me ~other ~attempts in
      set_waiting other false;
      d)
    duel_script

let t_backends_agree () =
  List.iter
    (fun factory ->
      let name = Cm_intf.name factory in
      (* One txn pair shared by both replays: timestamps, priorities
         and ids must be identical inputs, only the manager instance
         differs. *)
      let older, younger = fresh_pair () in
      let for_locator =
        replay (Runtime_intf.consult (Cm_intf.instantiate factory)) ~older ~younger
      in
      let for_tl2 =
        replay (Runtime_intf.consult (Cm_intf.instantiate factory)) ~older ~younger
      in
      if String.equal name "randomized" then
        (* Coin-flipping manager: exact agreement is not required (nor
           meaningful); both instances must stay inside its published
           verdict range. *)
        List.iter
          (fun d ->
            match d with
            | Decision.Abort_other | Decision.Backoff _ -> ()
            | d -> Alcotest.failf "randomized out of range: %a" Decision.pp d)
          (for_locator @ for_tl2)
      else
        (* Backoff durations are jittered per manager instance (Polite
           and Polka draw from a private PRNG), so agreement there is
           up to the duration; every other verdict — including block
           timeouts, which Greedy-FT doubles deterministically — must
           match exactly. *)
        let agree a b =
          match (a, b) with
          | Decision.Backoff _, Decision.Backoff _ -> true
          | a, b -> a = b
        in
        List.iteri
          (fun i (dl, dt) ->
            if not (agree dl dt) then
              Alcotest.failf "%s: step %d disagrees: locator %a, tl2 %a" name i
                Decision.pp dl Decision.pp dt)
          (List.combine for_locator for_tl2))
    Registry.all

(* The registry-wide duel above exercises sto-adaptive only in its
   timid phase (no opens are replayed, so both instances deterministically
   return Abort_self).  Stamp both parties by hand to duel the fight phase
   too: verdict classes are deterministic given the stamps, with
   agreement up to the jittered backoff duration as usual. *)
let t_sto_fight_cross_backend () =
  let factory : Cm_intf.factory = (module Sto_adaptive) in
  let older, younger = fresh_pair () in
  Txn.set_cm_stamp older 1;
  Txn.set_cm_stamp younger 2;
  let for_locator =
    replay (Runtime_intf.consult (Cm_intf.instantiate factory)) ~older ~younger
  in
  let for_tl2 =
    replay (Runtime_intf.consult (Cm_intf.instantiate factory)) ~older ~younger
  in
  let agree a b =
    match (a, b) with
    | Decision.Backoff _, Decision.Backoff _ -> true
    | a, b -> a = b
  in
  List.iteri
    (fun i (dl, dt) ->
      if not (agree dl dt) then
        Alcotest.failf "fight step %d disagrees: locator %a, tl2 %a" i
          Decision.pp dl Decision.pp dt)
    (List.combine for_locator for_tl2)

(* ------------------------------------------------------------------ *)
(* Manager state on the plane: slot lifecycle                          *)
(* ------------------------------------------------------------------ *)

let t_slab_slots_scrubbed () =
  let words = 6 in
  let s = Tcm_metrics.Plane.acquire words in
  for i = 0 to words - 1 do
    Alcotest.(check int) "fresh slot is zero" 0 (Tcm_metrics.Plane.get s i);
    Tcm_metrics.Plane.set s i (1000 + i)
  done;
  Tcm_metrics.Plane.release s;
  (* Same stride: the freelist hands the storage back — it must carry
     nothing of the previous tenant. *)
  let s2 = Tcm_metrics.Plane.acquire words in
  for i = 0 to words - 1 do
    Alcotest.(check int) "recycled slot is scrubbed" 0 (Tcm_metrics.Plane.get s2 i)
  done;
  Tcm_metrics.Plane.release s2

let t_slab_release_idempotent () =
  let s = Tcm_metrics.Plane.acquire 4 in
  Tcm_metrics.Plane.release s;
  let after_first = Tcm_metrics.Plane.live_slots () in
  (* A second release (the domain-exit hook firing after an explicit
     release) must not double-free the slot into the freelist. *)
  Tcm_metrics.Plane.release s;
  Alcotest.(check int) "double release is a no-op" after_first
    (Tcm_metrics.Plane.live_slots ())

let t_slab_domain_exit_releases () =
  let baseline = Tcm_metrics.Plane.live_slots () in
  let d =
    Domain.spawn (fun () ->
        (* A manager instance's worth of state, tied to this domain the
           way the runtime's DLS initializer ties it. *)
        let s = Tcm_metrics.Plane.acquire 8 in
        Tcm_metrics.Plane.set s 0 42;
        Tcm_metrics.Plane.live_slots ())
  in
  let inside = Domain.join d in
  Alcotest.(check int) "slot live while the domain runs" (baseline + 1) inside;
  Alcotest.(check int) "domain exit released the slot" baseline
    (Tcm_metrics.Plane.live_slots ())

let t_slab_no_cross_domain_bleed () =
  let words = 6 and rounds = 2_000 in
  let worker tag () =
    let s = Tcm_metrics.Plane.acquire words in
    let ok = ref true in
    for _ = 1 to rounds do
      for i = 0 to words - 1 do
        Tcm_metrics.Plane.set s i tag
      done;
      Domain.cpu_relax ();
      for i = 0 to words - 1 do
        if Tcm_metrics.Plane.get s i <> tag then ok := false
      done
    done;
    !ok
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker (d + 1))) in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d sees only its own writes" d)
        true (Domain.join dom))
    domains

(* The simulator's scope: managers built inside draw the same jitter
   for the same seed, and their slots are back on the freelist when it
   closes. *)
let t_slab_scoped () =
  let baseline = Tcm_metrics.Plane.live_slots () in
  let draws seed =
    Cm_util.scoped ~seed (fun () ->
        let p = Cm_util.Prng.create () in
        let _table = Cm_util.Table.create ~cap:16 in
        Alcotest.(check int) "slots live in the scope" (baseline + 2)
          (Tcm_metrics.Plane.live_slots ());
        List.init 8 (fun _ -> Cm_util.Prng.int p 1_000_000))
  in
  Alcotest.(check (list int)) "same seed, same stream" (draws 7) (draws 7);
  Alcotest.(check bool) "different seed, different stream" true (draws 7 <> draws 8);
  Alcotest.(check int) "scope exit released the slots" baseline
    (Tcm_metrics.Plane.live_slots ())

let t_table_ops () =
  let t = Cm_util.Table.create ~cap:16 in
  Alcotest.(check int) "miss returns default" (-1)
    (Cm_util.Table.find t 5 ~default:(-1));
  Cm_util.Table.put t 5 99;
  Cm_util.Table.put t 7 11;
  Alcotest.(check int) "hit" 99 (Cm_util.Table.find t 5 ~default:(-1));
  Cm_util.Table.put t 5 100;
  Alcotest.(check int) "put updates in place" 100
    (Cm_util.Table.find t 5 ~default:(-1));
  Alcotest.(check bool) "mem" true (Cm_util.Table.mem t 7);
  Cm_util.Table.reset t;
  Alcotest.(check bool) "reset forgets everything" false
    (Cm_util.Table.mem t 5);
  Cm_util.Table.put t 5 1;
  Alcotest.(check int) "usable after reset" 1
    (Cm_util.Table.find t 5 ~default:(-1))

let t_table_bounded () =
  (* Overfill with colliding keys: the bounded window must keep the
     table usable (dropped memories are benign advisory state), never
     loop or grow. *)
  let cap = 16 in
  let t = Cm_util.Table.create ~cap in
  for k = 0 to 8 * cap do
    Cm_util.Table.put t k k
  done;
  let survivors = ref 0 in
  for k = 0 to 8 * cap do
    if Cm_util.Table.find t k ~default:(-1) = k then incr survivors
  done;
  Alcotest.(check bool) "some memories survive pressure" true (!survivors > 0)

let () =
  Alcotest.run "cm"
    [
      ( "greedy",
        [
          Alcotest.test_case "the two rules" `Quick t_greedy_rules;
          Alcotest.test_case "no mutual waiting" `Quick t_greedy_no_wait_cycle;
          Alcotest.test_case "randomized ranks" `Quick t_rand_greedy_ranks;
        ] );
      ( "greedy-ft",
        [
          Alcotest.test_case "timeout doubles per enemy" `Quick t_greedy_ft_timeout_doubles;
          Alcotest.test_case "rule 1 intact" `Quick t_greedy_ft_rule1_intact;
        ] );
      ( "extremes",
        [
          Alcotest.test_case "aggressive" `Quick t_aggressive;
          Alcotest.test_case "timid" `Quick t_timid;
          Alcotest.test_case "randomized stays in range" `Quick t_randomized_range;
        ] );
      ( "polite",
        [
          Alcotest.test_case "backs off then aborts" `Quick t_polite_backs_off_then_aborts;
          Alcotest.test_case "exponential growth" `Quick t_polite_grows;
        ] );
      ("killblocked", [ Alcotest.test_case "kills blocked enemies" `Quick t_killblocked ]);
      ( "kindergarten",
        [
          Alcotest.test_case "taking turns" `Quick t_kindergarten_turns;
          Alcotest.test_case "grudges reset on commit" `Quick t_kindergarten_resets_on_commit;
        ] );
      ("timestamp", [ Alcotest.test_case "quantum waits" `Quick t_timestamp ]);
      ( "karma-family",
        [
          Alcotest.test_case "karma comparisons" `Quick t_karma;
          Alcotest.test_case "karma attempts accumulate" `Quick t_karma_attempts_accumulate;
          Alcotest.test_case "eruption pressure transfer" `Quick t_eruption_pressure;
          Alcotest.test_case "polka gap backoffs" `Quick t_polka;
        ] );
      ( "queueonblock",
        [
          Alcotest.test_case "bounded FIFO waiting" `Quick t_queue_on_block;
          Alcotest.test_case "unbounded variant" `Quick t_queue_on_block_unbounded;
        ] );
      ( "sto-adaptive",
        [
          Alcotest.test_case "timid phase concedes" `Quick t_sto_timid;
          Alcotest.test_case "threshold buys a stamp" `Quick t_sto_phase_transition;
          Alcotest.test_case "fight verdicts" `Quick t_sto_fight_verdicts;
          Alcotest.test_case "successive-abort cap bounds the wait" `Quick
            t_sto_succ_abort_cap;
        ] );
      ( "registry",
        [
          Alcotest.test_case "finds every manager" `Quick t_registry_finds_all;
          Alcotest.test_case "manager count" `Quick t_registry_count;
          Alcotest.test_case "case insensitive" `Quick t_registry_case_insensitive;
          Alcotest.test_case "unknown name" `Quick t_registry_unknown;
          Alcotest.test_case "unknown name raises" `Quick t_registry_unknown_exn;
          Alcotest.test_case "every module registered" `Quick t_registry_complete;
          Alcotest.test_case "names unique" `Quick t_registry_names_unique;
          Alcotest.test_case "paper line-up" `Quick t_paper_lineup;
        ] );
      ( "cross-backend",
        [
          Alcotest.test_case "verdicts agree locator vs tl2" `Quick t_backends_agree;
          Alcotest.test_case "sto-adaptive fight phase agrees" `Quick
            t_sto_fight_cross_backend;
        ] );
      ( "cm-state",
        [
          Alcotest.test_case "slots scrubbed on reuse" `Quick t_slab_slots_scrubbed;
          Alcotest.test_case "release is idempotent" `Quick t_slab_release_idempotent;
          Alcotest.test_case "domain exit releases" `Quick t_slab_domain_exit_releases;
          Alcotest.test_case "no cross-domain bleed" `Quick t_slab_no_cross_domain_bleed;
          Alcotest.test_case "scoped seeding and release" `Quick t_slab_scoped;
          Alcotest.test_case "table round-trip and reset" `Quick t_table_ops;
          Alcotest.test_case "table bounded under pressure" `Quick t_table_bounded;
        ] );
    ]
