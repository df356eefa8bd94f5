(** Tests for the discrete-event simulator: specs, the two-phase
    engine, the canonical scenarios, the pending-commit and Theorem 9
    property checkers, and the managers' end-to-end behaviour in the
    simulator. *)

open Tcm_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let makespan_exn (r : Engine.result) =
  match r.Engine.makespan with
  | Some m -> m
  | None -> Alcotest.fail "expected a completed run"

let greedy : Tcm_stm.Cm_intf.factory = (module Tcm_core.Greedy)
let manager = Tcm_core.Registry.find_exn
let unbounded_fifo : Tcm_stm.Cm_intf.factory = (module Tcm_core.Queue_on_block.Unbounded)
let rand_greedy : Tcm_stm.Cm_intf.factory = (module Tcm_core.Randomized_greedy)

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)
(* ------------------------------------------------------------------ *)

let t_spec_validation () =
  Alcotest.check_raises "dur 0" (Invalid_argument "Spec.txn: dur must be positive") (fun () ->
      ignore (Spec.txn ~dur:0 []));
  Alcotest.check_raises "access beyond dur"
    (Invalid_argument "Spec.txn: access time out of range") (fun () ->
      ignore (Spec.txn ~dur:2 [ Spec.write ~at:2 ~obj:0 ]));
  Alcotest.check_raises "negative object" (Invalid_argument "Spec.txn: negative object")
    (fun () -> ignore (Spec.txn ~dur:2 [ Spec.write ~at:0 ~obj:(-1) ]))

let t_spec_sorted () =
  let t = Spec.txn ~dur:5 [ Spec.write ~at:3 ~obj:0; Spec.write ~at:1 ~obj:1 ] in
  Alcotest.(check (list int)) "sorted by at" [ 1; 3 ]
    (List.map (fun a -> a.Spec.at) t.Spec.accesses)

(* Random access lists with many equal [at] values: [Spec.txn] must
   order them exactly as a stable sort by [at] does, and hand an
   already-sorted list back without copying it. *)
let prop_spec_sorted =
  let access =
    QCheck.(
      map
        (fun (at, obj, w) -> if w then Spec.write ~at ~obj else Spec.read ~at ~obj)
        (triple (int_bound 4) (int_bound 9) bool))
  in
  QCheck.Test.make ~name:"accesses = stable sort by at" ~count:300
    QCheck.(list_of_size Gen.(0 -- 12) access)
    (fun accesses ->
      let by_at = List.stable_sort (fun a b -> compare a.Spec.at b.Spec.at) accesses in
      (Spec.txn ~dur:5 accesses).Spec.accesses = by_at
      && (Spec.txn ~dur:5 by_at).Spec.accesses == by_at)

let t_spec_n_objects () =
  let inst = Spec.instance [ Spec.txn ~dur:1 [ Spec.write ~at:0 ~obj:7 ] ] in
  check_int "n_objects" 8 inst.Spec.n_objects

let t_to_task_system () =
  let inst =
    Spec.instance
      [
        Spec.txn ~dur:3 [ Spec.write ~at:0 ~obj:0; Spec.read ~at:1 ~obj:1 ];
        Spec.txn ~dur:2 [ Spec.read ~at:0 ~obj:1 ];
      ]
  in
  let ts = Spec.to_task_system inst in
  check_int "tasks" 2 (Tcm_sched.Task_system.n_tasks ts);
  Alcotest.(check (float 1e-9)) "write amount" 1. (Tcm_sched.Task_system.usage ts.Tcm_sched.Task_system.tasks.(0) 0);
  Alcotest.(check (float 1e-9)) "read amount 1/n" 0.5
    (Tcm_sched.Task_system.usage ts.Tcm_sched.Task_system.tasks.(1) 1)

(* ------------------------------------------------------------------ *)
(* Engine basics                                                       *)
(* ------------------------------------------------------------------ *)

let t_single_txn () =
  let inst = Spec.instance [ Spec.txn ~dur:4 [ Spec.write ~at:0 ~obj:0 ] ] in
  let r = Engine.run_instance ~manager:greedy inst in
  check_bool "completed" true r.Engine.completed;
  check_int "makespan = dur" 4 (makespan_exn r);
  check_int "one commit" 1 r.Engine.commits;
  check_int "no aborts" 0 r.Engine.aborts

let t_disjoint_parallel () =
  let inst =
    Spec.instance
      [ Spec.txn ~dur:3 [ Spec.write ~at:0 ~obj:0 ]; Spec.txn ~dur:5 [ Spec.write ~at:0 ~obj:1 ] ]
  in
  let r = Engine.run_instance ~manager:greedy inst in
  check_int "parallel makespan" 5 (makespan_exn r);
  check_int "no aborts" 0 r.Engine.aborts

let t_conflict_younger_blocks () =
  (* Thread 0 older; thread 1 conflicts and must wait: serialized. *)
  let inst =
    Spec.instance
      [ Spec.txn ~dur:3 [ Spec.write ~at:0 ~obj:0 ]; Spec.txn ~dur:3 [ Spec.write ~at:0 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~manager:greedy inst in
  check_int "serialized" 6 (makespan_exn r);
  check_int "no aborts under greedy here" 0 r.Engine.aborts

let t_conflict_older_aborts () =
  (* Thread 1 (younger) grabs the object first (accesses at tick 0 are
     processed in id order, but thread 0 accesses at tick 1), then the
     older thread 0 arrives and aborts it. *)
  let inst =
    Spec.instance
      [ Spec.txn ~dur:4 [ Spec.write ~at:1 ~obj:0 ]; Spec.txn ~dur:4 [ Spec.write ~at:0 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~manager:greedy inst in
  check_bool "completed" true r.Engine.completed;
  check_int "one abort (the younger)" 1 r.Engine.aborts;
  (* Thread 0 commits first at 4; thread 1 restarts at tick 1+1 and
     needs the object again. *)
  let first_committer, _, _ = List.hd r.Engine.commit_log in
  check_int "older commits first" 0 first_committer

let t_ranks_override () =
  (* Same instance, but thread 1 made older via ranks: now thread 0
     gets aborted. *)
  let inst =
    Spec.instance
      [ Spec.txn ~dur:4 [ Spec.write ~at:1 ~obj:0 ]; Spec.txn ~dur:4 [ Spec.write ~at:0 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~ranks:[| 2; 1 |] ~manager:greedy inst in
  let first_committer, _, _ = List.hd r.Engine.commit_log in
  check_int "re-ranked winner" 1 first_committer;
  (* Thread 0 is now the younger party: it waits instead of aborting. *)
  check_int "thread 0 waits, no abort" 0 r.Engine.per_thread_aborts.(0)

let t_read_read_no_conflict () =
  let inst =
    Spec.instance
      [ Spec.txn ~dur:3 [ Spec.read ~at:0 ~obj:0 ]; Spec.txn ~dur:3 [ Spec.read ~at:0 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~manager:greedy inst in
  check_int "readers share" 3 (makespan_exn r);
  check_int "no aborts" 0 r.Engine.aborts

let t_write_read_conflict () =
  let inst =
    Spec.instance
      [ Spec.txn ~dur:3 [ Spec.read ~at:0 ~obj:0 ]; Spec.txn ~dur:3 [ Spec.write ~at:0 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~manager:greedy inst in
  check_bool "completed" true r.Engine.completed;
  check_bool "serialized (makespan > 3)" true (makespan_exn r > 3)

let t_determinism () =
  let run () =
    let inst = Scenarios.random_instance ~seed:123 ~n:6 ~s:3 () in
    let r = Engine.run_instance ~seed:9 ~manager:(manager "backoff") inst in
    (r.Engine.commits, r.Engine.aborts, r.Engine.makespan, r.Engine.commit_log)
  in
  check_bool "identical reruns" true (run () = run ())

let t_horizon_stops () =
  let inst = Scenarios.dependency_cycle () in
  let r =
    Engine.run_instance ~horizon:500
      ~manager:unbounded_fifo
      inst
  in
  check_bool "not completed" false r.Engine.completed;
  check_int "stopped at horizon" 500 r.Engine.ticks;
  check_bool "no makespan" true (r.Engine.makespan = None)

(* Karma backs off 40-79 us when it cannot out-invest the owner: 40-79
   ticks at the default scale, long after the owner commits at tick 4;
   2-3 ticks at 32 us per tick, so the loser retries while the owner
   still runs and commits by tick 12. *)
let t_usec_per_tick () =
  let streams =
    Array.init 2 (fun tid k ->
        if k = 0 then Some (Spec.txn ~dur:4 [ Spec.write ~at:tid ~obj:0 ]) else None)
  in
  let makespan usec_per_tick =
    makespan_exn (Engine.run ?usec_per_tick ~manager:(manager "karma") ~n_objects:1 streams)
  in
  check_bool "1 us per tick: waits out 40+ ticks" true (makespan None >= 41);
  check_bool "32 us per tick: 2-3 tick backoffs" true (makespan (Some 32) <= 12);
  Alcotest.check_raises "scale below one tick rejected"
    (Invalid_argument "Engine.run: usec_per_tick < 1") (fun () -> ignore (makespan (Some 0)))

let t_empty_instance () =
  let r = Engine.run ~manager:greedy ~n_objects:0 [||] in
  check_bool "completed" true r.Engine.completed;
  check_int "zero commits" 0 r.Engine.commits

let t_multi_txn_stream () =
  (* One thread, three sequential transactions. *)
  let stream k = if k < 3 then Some (Spec.txn ~dur:2 [ Spec.write ~at:0 ~obj:0 ]) else None in
  let r = Engine.run ~manager:greedy ~n_objects:1 [| stream |] in
  check_int "three commits" 3 r.Engine.commits;
  (* Idle tick between transactions: each txn takes 2 ticks + 1 idle. *)
  check_bool "makespan >= 6" true (makespan_exn r >= 6)

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)
(* ------------------------------------------------------------------ *)

(* A manager that aborts the enemy and records what the engine showed
   it: the timestamp of every enemy it was handed, in order, and the
   number of opens it was told about.  After 8 resolves in a row at
   one access it aborts itself instead, so an engine that keeps
   handing it an enemy fails the test rather than spinning. *)
module Recorder = struct
  let name = "recorder"

  type t = unit

  let enemies = ref []
  let opens = ref 0

  let reset () =
    enemies := [];
    opens := 0

  let create () = ()
  let begin_attempt () _ = ()
  let opened () _ = incr opens
  let committed () _ = ()
  let aborted () _ = ()

  let resolve () ~me:_ ~other ~attempts =
    enemies := Tcm_stm.Txn.timestamp other :: !enemies;
    if attempts < 8 then Tcm_stm.Decision.abort_other else Tcm_stm.Decision.abort_self
end

let recorder : Tcm_stm.Cm_intf.factory = (module Recorder)

let t_writer_meets_latest_reader () =
  (* Readers of object 0 register at ticks 0 (threads 0, 2), 1
     (thread 3) and 2 (thread 1); thread 0 then upgrades to a write at
     tick 3.  Each enemy it is handed is the most recently registered
     reader other than itself: 1, then 3, then 2.  Thread i carries
     timestamp i + 1. *)
  Recorder.reset ();
  let inst =
    Spec.instance
      [
        Spec.txn ~dur:5 [ Spec.read ~at:0 ~obj:0; Spec.write ~at:3 ~obj:0 ];
        Spec.txn ~dur:9 [ Spec.read ~at:2 ~obj:0 ];
        Spec.txn ~dur:9 [ Spec.read ~at:0 ~obj:0 ];
        Spec.txn ~dur:9 [ Spec.read ~at:1 ~obj:0 ];
      ]
  in
  (* The run stops before the readers restart and fight back. *)
  let r = Engine.run_instance ~horizon:4 ~manager:recorder inst in
  Alcotest.(check (list int)) "enemies, latest registration first" [ 2; 4; 3 ]
    (List.rev !Recorder.enemies);
  check_int "three aborted readers" 3 r.Engine.aborts

let t_upgrade_then_abort_leaves_no_reader () =
  (* Thread 1 reads object 0, upgrades to a write, and halts holding
     it.  Thread 0 aborts it at tick 3 and commits at tick 4.  Thread
     2's write at tick 5 then finds object 0 free and unread: one
     conflict in the run, and thread 2 commits at its own pace. *)
  Recorder.reset ();
  let inst =
    Spec.instance
      [
        Spec.txn ~dur:4 [ Spec.write ~at:3 ~obj:0 ];
        Spec.txn ~halts_at:2 ~dur:9 [ Spec.read ~at:0 ~obj:0; Spec.write ~at:1 ~obj:0 ];
        Spec.txn ~dur:7 [ Spec.write ~at:5 ~obj:0 ];
      ]
  in
  let r = Engine.run_instance ~horizon:20 ~manager:recorder inst in
  Alcotest.(check (list int)) "only thread 1 was an enemy" [ 2 ] !Recorder.enemies;
  check_bool "completed" true r.Engine.completed;
  Alcotest.(check (list (triple int int int)))
    "commits" [ (0, 0, 4); (2, 0, 7) ] r.Engine.commit_log

let t_reread_owned_object () =
  (* Re-reading an object the thread writes is no open: the manager
     hears of the write alone. *)
  Recorder.reset ();
  let inst =
    Spec.instance [ Spec.txn ~dur:4 [ Spec.write ~at:0 ~obj:0; Spec.read ~at:1 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~manager:recorder inst in
  check_int "one open" 1 !Recorder.opens;
  check_int "one commit" 1 r.Engine.commits

let t_object_out_of_range () =
  (* Object state is reused across runs, so an earlier run's larger
     arrays must not let an out-of-range object through. *)
  ignore (Engine.run_instance ~manager:greedy (Spec.instance [ Spec.txn ~dur:1 [ Spec.write ~at:0 ~obj:9 ] ]));
  Alcotest.check_raises "object 5 of 2" (Invalid_argument "Engine.run: object id >= n_objects")
    (fun () ->
      ignore
        (Engine.run ~manager:greedy ~n_objects:2
           [| (fun k -> if k = 0 then Some (Spec.txn ~dur:1 [ Spec.read ~at:0 ~obj:5 ]) else None) |]))

(* ------------------------------------------------------------------ *)
(* The Section 4 chain                                                 *)
(* ------------------------------------------------------------------ *)

let t_chain_exact_makespans () =
  List.iter
    (fun s ->
      let inst, ranks = Scenarios.adversarial_chain ~s () in
      let r = Engine.run_instance ~ranks ~manager:greedy inst in
      check_int (Printf.sprintf "greedy makespan s=%d" s) (2 * (s + 1)) (makespan_exn r))
    [ 1; 2; 3; 5; 8; 12 ]

let t_chain_commit_order () =
  let s = 5 in
  let inst, ranks = Scenarios.adversarial_chain ~s () in
  let r = Engine.run_instance ~ranks ~manager:greedy inst in
  Alcotest.(check (list int)) "T_s first, then descending" [ 5; 4; 3; 2; 1; 0 ]
    (List.map (fun (tid, _, _) -> tid) r.Engine.commit_log)

let t_chain_optimal_vs_greedy () =
  let s = 6 in
  let inst, ranks = Scenarios.adversarial_chain ~s () in
  let r = Engine.run_instance ~ranks ~manager:greedy inst in
  let opt = 2 * Tcm_sched.Adversarial.optimal_makespan ~s in
  check_int "optimal stays 2 units" 4 opt;
  check_bool "greedy linear in s" true (makespan_exn r = 2 * (s + 1));
  check_bool "theorem 9 respected" true
    (makespan_exn r <= Tcm_sched.Bounds.pending_commit_factor ~s * opt)

let t_chain_aborts_budget () =
  let s = 8 in
  let n = s + 1 in
  let inst, ranks = Scenarios.adversarial_chain ~s () in
  let r = Engine.run_instance ~ranks ~manager:greedy inst in
  check_bool "abort budget n(n-1)/2" true (Props.greedy_abort_budget ~n r)

let t_chain_granularity () =
  let inst, ranks = Scenarios.adversarial_chain ~granularity:4 ~s:3 () in
  let r = Engine.run_instance ~ranks ~manager:greedy inst in
  check_int "scales with granularity" (4 * 4) (makespan_exn r)

let t_chain_validation () =
  Alcotest.check_raises "s=0" (Invalid_argument "Scenarios.adversarial_chain: s >= 1")
    (fun () -> ignore (Scenarios.adversarial_chain ~s:0 ()));
  Alcotest.check_raises "granularity=1"
    (Invalid_argument "Scenarios.adversarial_chain: granularity >= 2") (fun () ->
      ignore (Scenarios.adversarial_chain ~granularity:1 ~s:2 ()))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let t_pending_commit_greedy () =
  List.iter
    (fun seed ->
      let inst = Scenarios.random_instance ~seed ~n:5 ~s:3 () in
      let r = Engine.run_instance ~record_grid:true ~manager:greedy inst in
      check_bool (Printf.sprintf "pending commit (seed %d)" seed) true (Props.pending_commit r))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let t_pending_commit_needs_grid () =
  let inst = Spec.instance [ Spec.txn ~dur:1 [ Spec.write ~at:0 ~obj:0 ] ] in
  let r = Engine.run_instance ~manager:greedy inst in
  Alcotest.check_raises "requires grid"
    (Invalid_argument "Props.pending_commit: run with ~record_grid:true") (fun () ->
      ignore (Props.pending_commit r))

let t_pending_commit_incomplete () =
  let inst = Scenarios.dependency_cycle () in
  let r =
    Engine.run_instance ~horizon:200 ~record_grid:true
      ~manager:unbounded_fifo
      inst
  in
  check_bool "false on livelock" false (Props.pending_commit r)

let prop_theorem9 =
  QCheck.Test.make ~name:"theorem 9 bound on random instances (greedy)" ~count:80
    QCheck.(pair (int_bound 100_000) (int_range 3 6))
    (fun (seed, n) ->
      let inst = Scenarios.random_instance ~seed ~n ~s:3 () in
      let r = Engine.run_instance ~manager:greedy inst in
      (Props.theorem9_check ~inst r).Props.ok)

let prop_greedy_completes =
  QCheck.Test.make ~name:"greedy always completes (Theorem 1)" ~count:80
    QCheck.(pair (int_bound 100_000) (int_range 2 8))
    (fun (seed, n) ->
      let inst = Scenarios.random_instance ~seed ~n ~s:4 () in
      let r = Engine.run_instance ~horizon:100_000 ~manager:greedy inst in
      Props.all_committed r)

(* The n(n-1)/2 budget is a theorem when every transaction writes a
   single object.  A waiting transaction then holds nothing, so only
   Rule 1's age clause aborts anyone: an older transaction takes an
   object from a younger owner.  Between two commits the owners of one
   object therefore get strictly older, so with m transactions left at
   most m-1 aborts happen before the next commit, and the sum over
   m = n..1 is n(n-1)/2. *)
let prop_greedy_abort_budget =
  QCheck.Test.make ~name:"greedy one-shot aborts <= n(n-1)/2" ~count:80
    QCheck.(triple (int_bound 100_000) (int_range 2 8) (int_range 1 4))
    (fun (seed, n, s) ->
      let inst = Scenarios.random_instance ~seed ~n ~s ~max_acc:1 () in
      let r = Engine.run_instance ~manager:greedy inst in
      Props.greedy_abort_budget ~n r)

(* With several objects per transaction the budget fails: Rule 1 lets
   a younger transaction abort a waiting older one, which restarts and
   aborts the younger again. *)
let t_abort_budget_counterexample () =
  let inst = Scenarios.random_instance ~seed:22267 ~n:3 ~s:4 () in
  let r = Engine.run_instance ~manager:greedy inst in
  check_bool "completed" true r.Engine.completed;
  check_int "4 aborts, over the n(n-1)/2 = 3 budget" 4 r.Engine.aborts;
  check_bool "budget fails" false (Props.greedy_abort_budget ~n:3 r)

(* ------------------------------------------------------------------ *)
(* Policies end-to-end                                                 *)
(* ------------------------------------------------------------------ *)

let t_cycle_by_policy () =
  let inst = Scenarios.dependency_cycle () in
  let completes m =
    (Engine.run_instance ~horizon:50_000 ~manager:m inst).Engine.completed
  in
  check_bool "unbounded FIFO livelocks" false (completes unbounded_fifo);
  List.iter
    (fun name -> check_bool (name ^ " completes") true (completes (manager name)))
    [ "greedy"; "greedy-ft"; "aggressive"; "timestamp"; "killblocked"; "karma"; "queueonblock" ]

let t_all_policies_random_instances () =
  (* Every shipped policy eventually finishes small random instances
     (their timeouts/priorities rule out permanent livelock). *)
  List.iter
    (fun m ->
      let inst = Scenarios.random_instance ~seed:77 ~n:6 ~s:3 () in
      let r = Engine.run_instance ~horizon:1_000_000 ~seed:5 ~manager:m inst in
      check_bool (Tcm_stm.Cm_intf.name m ^ " completes") true r.Engine.completed)
    Tcm_core.Registry.simulated

let t_timid_self_aborts () =
  let inst =
    Spec.instance
      [ Spec.txn ~dur:6 [ Spec.write ~at:0 ~obj:0 ]; Spec.txn ~dur:2 [ Spec.write ~at:1 ~obj:0 ] ]
  in
  let r = Engine.run_instance ~manager:(manager "timid") inst in
  check_bool "completed" true r.Engine.completed;
  check_bool "the timid one aborted itself" true (r.Engine.per_thread_aborts.(1) > 0);
  check_int "owner kept the object" 0 r.Engine.per_thread_aborts.(0)

let t_eruption_pressure () =
  (* Under eruption, a blocker inherits the blocked transaction's
     priority; here thread 1 blocks behind 0 and transfers pressure. *)
  let inst =
    Spec.instance
      [
        Spec.txn ~dur:8 [ Spec.write ~at:0 ~obj:0; Spec.write ~at:4 ~obj:1 ];
        Spec.txn ~dur:8 [ Spec.write ~at:0 ~obj:1 ];
      ]
  in
  let r = Engine.run_instance ~manager:(manager "eruption") inst in
  check_bool "completed" true r.Engine.completed

let t_randomized_greedy () =
  (* Keeps greedy's guarantees (strict total order on ranks) but is
     immune to the chain's arrival-order adversary. *)
  let s = 8 in
  let inst, ranks = Scenarios.adversarial_chain ~s () in
  List.iter
    (fun seed ->
      let r =
        Engine.run_instance ~ranks ~record_grid:true ~seed
          ~manager:rand_greedy inst
      in
      check_bool "completes" true r.Engine.completed;
      check_bool "pending commit" true (Props.pending_commit r);
      check_bool "abort budget" true (Props.greedy_abort_budget ~n:(s + 1) r))
    [ 1; 2; 3; 4; 5 ];
  (* Averaged over seeds the chain loses its sting. *)
  let mean_makespan =
    let ms =
      List.init 20 (fun seed ->
          let r =
            Engine.run_instance ~ranks ~seed ~manager:rand_greedy inst
          in
          float_of_int (Option.get r.Engine.makespan))
    in
    List.fold_left ( +. ) 0. ms /. 20.
  in
  check_bool "beats arrival-order greedy on average" true
    (mean_makespan < float_of_int (2 * (s + 1)))

let t_timeline_render () =
  let inst, ranks = Scenarios.adversarial_chain ~s:3 () in
  let r = Engine.run_instance ~ranks ~record_grid:true ~manager:greedy inst in
  let s = Timeline.render r in
  check_bool "mentions threads" true (String.length s > 0);
  check_bool "has commit marks" true (String.contains s 'C');
  check_bool "has abort marks" true (String.contains s 'X');
  (* Without a grid, render degrades gracefully. *)
  let r2 = Engine.run_instance ~ranks ~manager:greedy inst in
  check_bool "no-grid message" true
    (String.length (Timeline.render r2) > 0 && not (String.contains (Timeline.render r2) 'C'))

let t_oldest_never_aborted () =
  (* Greedy's core invariant: the highest-priority transaction is never
     aborted by a synchronization conflict. *)
  List.iter
    (fun seed ->
      let inst = Scenarios.random_instance ~seed ~n:6 ~s:3 () in
      let r = Engine.run_instance ~manager:greedy inst in
      (* Thread 0 carries the oldest timestamp in run_instance. *)
      check_int
        (Printf.sprintf "oldest unharmed (seed %d)" seed)
        0
        r.Engine.per_thread_aborts.(0))
    (List.init 20 succ)

let t_golden_sim_values () =
  (* Deterministic end-to-end pin: any engine or policy change that
     alters scheduling shows up here first.  Update the values only
     with a change that means to alter the simulation. *)
  let run manager =
    let o =
      Tcm_workload.Sim_load.run ~horizon:1_000 ~seed:42 ~threads:4 ~manager
        Tcm_workload.Sim_load.skiplist_model
    in
    o.Tcm_workload.Sim_load.commits
  in
  check_int "greedy pinned" 555 (run greedy);
  check_int "karma pinned" 479 (run (manager "karma"))

(* The rows of a short fig1-fig4 sweep (threads 1-32, the paper's five
   managers), printed as the benchmark prints them: every bit of every
   throughput. *)
let t_pinned_sweep () =
  let module F = Tcm_workload.Figures in
  let rows =
    List.concat_map
      (fun (spec : F.spec) ->
        let r = F.run ~mode:(F.Sim { horizon = 1_500 }) spec in
        List.map
          (fun (row : F.row) ->
            Printf.sprintf "%s/%d:%s" spec.F.id row.F.threads
              (String.concat ","
                 (List.map (fun (m, v) -> Printf.sprintf "%s=%h" m v) row.F.cells)))
          r.F.rows)
      F.all
  in
  Alcotest.(check string) "sweep rows digest" "f76c3fd92371c79031072102d4410a20"
    (Digest.to_hex (Digest.string (String.concat ";" rows)))

(* Every field of a run, the grid included. *)
let result_string (r : Engine.result) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s t%d %b m%d c%d a%d x%d|" r.Engine.manager_name r.Engine.ticks
    r.Engine.completed
    (Option.value ~default:(-1) r.Engine.makespan)
    r.Engine.commits r.Engine.aborts r.Engine.max_aborts_one_txn;
  List.iter (fun (th, k, tick) -> Printf.bprintf b "%d.%d@%d " th k tick) r.Engine.commit_log;
  Array.iter (Printf.bprintf b "c%d ") r.Engine.per_thread_commits;
  Array.iter (Printf.bprintf b "a%d ") r.Engine.per_thread_aborts;
  Array.iter
    (fun row ->
      Buffer.add_char b '|';
      Array.iter
        (fun (c : Engine.cell) ->
          Printf.bprintf b "%d%c" c.Engine.attempt
            (match c.Engine.kind with
            | Engine.Run -> 'r'
            | Engine.Wait -> 'w'
            | Engine.Back -> 'b'
            | Engine.Idle -> 'i'
            | Engine.Done -> 'd'))
        row)
    r.Engine.grid;
  Buffer.contents b

(* Three transactions per thread over [s] objects, reads and writes
   mixed, so an object may be read and later written (an upgrade) or
   written and read again. *)
let mixed_streams ~seed ~threads ~s =
  Array.init threads (fun tid k ->
      if k >= 3 then None
      else
        let rng = Tcm_stm.Splitmix.create ((seed * 7_919) + (tid * 131) + k) in
        let dur = 2 + Tcm_stm.Splitmix.int rng 8 in
        let n_acc = 1 + Tcm_stm.Splitmix.int rng 4 in
        Some
          (Spec.txn ~dur
             (List.init n_acc (fun _ ->
                  let at = Tcm_stm.Splitmix.int rng dur and obj = Tcm_stm.Splitmix.int rng s in
                  if Tcm_stm.Splitmix.bool rng then Spec.write ~at ~obj else Spec.read ~at ~obj))))

(* Every simulated manager over the canonical scenarios: random
   instances with and without inverted ranks, the Section 4 chain, a
   halted owner (the timeout managers' Block deadlines), a Zipf hot
   spot, the dependency cycle and mixed read/write streams, each run
   recorded tick by tick. *)
let t_pinned_scenarios () =
  let b = Buffer.create 65_536 in
  let add r =
    Buffer.add_string b (result_string r);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun m ->
      let run ?ranks ?(horizon = 3_000) ~seed inst =
        add (Engine.run_instance ?ranks ~horizon ~record_grid:true ~seed ~manager:m inst)
      in
      for seed = 1 to 6 do
        let n = 3 + (seed mod 4) in
        let inst = Scenarios.random_instance ~seed ~n ~s:3 () in
        run ~seed inst;
        run ~ranks:(Array.init n (fun i -> n - i)) ~seed inst
      done;
      let chain, ranks = Scenarios.adversarial_chain ~s:4 () in
      run ~ranks ~seed:7 chain;
      run ~seed:8 (Scenarios.halted_owner ~n:4 ());
      run ~seed:9 (Scenarios.hotspot_instance ~seed:9 ~n:8 ~s:3 ~dur:4 ());
      run ~horizon:500 ~seed:10 (Scenarios.dependency_cycle ());
      List.iter
        (fun seed ->
          add
            (Engine.run ~horizon:2_000 ~record_grid:true ~seed ~manager:m ~n_objects:4
               (mixed_streams ~seed ~threads:5 ~s:4)))
        [ 11; 12 ])
    Tcm_core.Registry.simulated;
  Alcotest.(check string) "scenario results digest" "e609f87c1acadb54f5d72a120a0e8f70"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let t_halted_transactions () =
  (* Section 6: a transaction halts while holding the hot object.
     Pure greedy waits on the corpse forever; greedy-ft and the
     timeout-based managers abort it and let everyone else finish. *)
  let inst = Scenarios.halted_owner ~n:4 () in
  (* Backoff's ten doubling rounds from 16 us take ~16k ticks before it
     aborts the corpse. *)
  let run m = Engine.run_instance ~horizon:100_000 ~seed:3 ~manager:m inst in
  let g = run greedy in
  check_bool "greedy never finishes" false g.Engine.completed;
  check_int "greedy: nobody commits" 0 g.Engine.commits;
  (* Aggressive livelocks on the survivors' mutual aborts — the paper's
     "prone to livelocks" — and timid starves itself. *)
  check_bool "aggressive livelocks" false (run (manager "aggressive")).Engine.completed;
  check_bool "timid starves" false (run (manager "timid")).Engine.completed;
  List.iter
    (fun name ->
      let r = run (manager name) in
      check_bool (name ^ " finishes") true r.Engine.completed;
      check_int (name ^ ": survivors commit") 3 r.Engine.commits)
    [ "greedy-ft"; "timestamp"; "killblocked"; "backoff" ]

let t_halts_at_validation () =
  Alcotest.check_raises "halts_at out of range"
    (Invalid_argument "Spec.txn: halts_at out of range") (fun () ->
      ignore (Spec.txn ~halts_at:5 ~dur:3 []))

let t_starvation_ablation () =
  (* Retained timestamps bound the long transaction's restarts;
     refreshed timestamps starve it (DESIGN.md ablation). *)
  let streams =
    Array.init 6 (fun tid ->
        if tid = 0 then fun _ -> Some (Spec.txn ~dur:24 [ Spec.write ~at:0 ~obj:0 ])
        else fun _ -> Some (Spec.txn ~dur:2 [ Spec.write ~at:0 ~obj:0 ]))
  in
  let run ts = Engine.run ~horizon:2_000 ~ts_on_restart:ts ~manager:greedy ~n_objects:1 streams in
  let keep = run `Keep and fresh = run `Fresh in
  check_bool "keep: long txn commits repeatedly" true (keep.Engine.per_thread_commits.(0) > 5);
  check_bool "keep: restarts bounded by competitors" true (keep.Engine.max_aborts_one_txn <= 6);
  check_bool "fresh: long txn starves" true
    (fresh.Engine.per_thread_commits.(0) < keep.Engine.per_thread_commits.(0) / 4)

let () =
  Alcotest.run "sim"
    [
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick t_spec_validation;
          Alcotest.test_case "accesses sorted" `Quick t_spec_sorted;
          QCheck_alcotest.to_alcotest prop_spec_sorted;
          Alcotest.test_case "object counting" `Quick t_spec_n_objects;
          Alcotest.test_case "task-system conversion" `Quick t_to_task_system;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single transaction" `Quick t_single_txn;
          Alcotest.test_case "disjoint transactions run in parallel" `Quick t_disjoint_parallel;
          Alcotest.test_case "younger blocks behind older" `Quick t_conflict_younger_blocks;
          Alcotest.test_case "older aborts younger owner" `Quick t_conflict_older_aborts;
          Alcotest.test_case "ranks override arrival priority" `Quick t_ranks_override;
          Alcotest.test_case "readers do not conflict" `Quick t_read_read_no_conflict;
          Alcotest.test_case "writer-reader conflict serializes" `Quick t_write_read_conflict;
          Alcotest.test_case "runs are deterministic" `Quick t_determinism;
          Alcotest.test_case "horizon stops livelock" `Quick t_horizon_stops;
          Alcotest.test_case "empty instance" `Quick t_empty_instance;
          Alcotest.test_case "usec_per_tick scales backoffs" `Quick t_usec_per_tick;
          Alcotest.test_case "sequential stream of transactions" `Quick t_multi_txn_stream;
          Alcotest.test_case "writer meets the latest reader" `Quick t_writer_meets_latest_reader;
          Alcotest.test_case "upgrade then abort leaves no reader" `Quick
            t_upgrade_then_abort_leaves_no_reader;
          Alcotest.test_case "re-reading an owned object" `Quick t_reread_owned_object;
          Alcotest.test_case "object id out of range" `Quick t_object_out_of_range;
        ] );
      ( "chain",
        [
          Alcotest.test_case "greedy makespan = s+1 time units" `Quick t_chain_exact_makespans;
          Alcotest.test_case "commit order is T_s..T_0" `Quick t_chain_commit_order;
          Alcotest.test_case "optimal stays at 2 units" `Quick t_chain_optimal_vs_greedy;
          Alcotest.test_case "abort budget" `Quick t_chain_aborts_budget;
          Alcotest.test_case "granularity scaling" `Quick t_chain_granularity;
          Alcotest.test_case "parameter validation" `Quick t_chain_validation;
        ] );
      ( "properties",
        [
          Alcotest.test_case "greedy satisfies pending commit" `Quick t_pending_commit_greedy;
          Alcotest.test_case "pending commit needs the grid" `Quick t_pending_commit_needs_grid;
          Alcotest.test_case "pending commit false on livelock" `Quick t_pending_commit_incomplete;
          QCheck_alcotest.to_alcotest prop_theorem9;
          QCheck_alcotest.to_alcotest prop_greedy_completes;
          QCheck_alcotest.to_alcotest prop_greedy_abort_budget;
          Alcotest.test_case "abort budget fails with several objects" `Quick
            t_abort_budget_counterexample;
        ] );
      ( "policies",
        [
          Alcotest.test_case "dependency cycle per policy" `Quick t_cycle_by_policy;
          Alcotest.test_case "every policy completes random instances" `Quick
            t_all_policies_random_instances;
          Alcotest.test_case "timid aborts itself" `Quick t_timid_self_aborts;
          Alcotest.test_case "eruption transfers pressure" `Quick t_eruption_pressure;
          Alcotest.test_case "oldest transaction never aborted" `Quick t_oldest_never_aborted;
          Alcotest.test_case "golden deterministic values" `Quick t_golden_sim_values;
          Alcotest.test_case "pinned fig1-fig4 sweep" `Quick t_pinned_sweep;
          Alcotest.test_case "pinned scenario results" `Quick t_pinned_scenarios;
          Alcotest.test_case "randomized greedy (open problem)" `Quick t_randomized_greedy;
          Alcotest.test_case "timeline rendering" `Quick t_timeline_render;
          Alcotest.test_case "halted transactions (section 6)" `Quick t_halted_transactions;
          Alcotest.test_case "halts_at validation" `Quick t_halts_at_validation;
          Alcotest.test_case "timestamp retention ablation" `Quick t_starvation_ablation;
        ] );
    ]
