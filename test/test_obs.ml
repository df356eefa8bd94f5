(* tcm.obs: the space-saving sketch's guarantees, the wasted-work
   ledger and its reconciliation against tcm.metrics on forced-conflict
   runs (both live backends and the simulator), the flight recorder's
   triggers and bundle round-trip, and the priced conflict scorer. *)

open Tcm_stm
module Sketch = Tcm_obs.Sketch
module Ledger = Tcm_obs.Ledger
module Hot = Tcm_obs.Hot
module Flight = Tcm_obs.Flight

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sketch                                                              *)
(* ------------------------------------------------------------------ *)

(* Capacity >= distinct keys: the sketch degenerates to exact counts
   with zero error. *)
let t_sketch_exact () =
  let sk = Sketch.create 16 in
  for k = 0 to 9 do
    for _ = 1 to k + 1 do
      Sketch.record sk k
    done
  done;
  let entries = Sketch.entries sk in
  check_int "distinct keys" 10 (List.length entries);
  check_int "total" 55 (Sketch.total sk);
  check_int "no eviction error" 0 (Sketch.max_error sk);
  List.iter
    (fun (e : Sketch.entry) ->
      check_int (Printf.sprintf "exact count of key %d" e.key) (e.key + 1)
        e.count;
      check_int "exact entries carry no error" 0 e.err)
    entries;
  (* Deterministic order: count desc, key asc. *)
  match entries with
  | first :: _ -> check_int "heaviest first" 9 first.key
  | [] -> Alcotest.fail "empty entries"

(* Over-capacity stream: totals are preserved, every reported count is
   an overestimate bounded by its err, and any key with true frequency
   above total/k is guaranteed present (the space-saving guarantee). *)
let t_sketch_bounds () =
  let sk = Sketch.create 4 in
  let truth = Hashtbl.create 32 in
  let feed key n =
    Hashtbl.replace truth key (n + Option.value ~default:0 (Hashtbl.find_opt truth key));
    for _ = 1 to n do
      Sketch.record sk key
    done
  in
  feed 0 100;
  feed 1 50;
  for k = 2 to 21 do
    feed k 1
  done;
  check_int "total preserved" 170 (Sketch.total sk);
  let entries = Sketch.entries sk in
  check_int "at most k entries" 4 (List.length entries);
  List.iter
    (fun (e : Sketch.entry) ->
      let true_count = Option.value ~default:0 (Hashtbl.find_opt truth e.key) in
      check_bool
        (Printf.sprintf "count >= truth for key %d" e.key)
        true (e.count >= true_count);
      check_bool
        (Printf.sprintf "count - err <= truth for key %d" e.key)
        true
        (e.count - e.err <= true_count))
    entries;
  (* freq(0)=100 and freq(1)=50 both exceed 170/4: guaranteed in. *)
  let keys = List.map (fun (e : Sketch.entry) -> e.key) entries in
  check_bool "heavy hitter 0 present" true (List.mem 0 keys);
  check_bool "heavy hitter 1 present" true (List.mem 1 keys);
  check_bool "error bound <= total/k" true (Sketch.max_error sk <= 170 / 4)

let t_sketch_merge_order_independent () =
  let mk seed n =
    let sk = Sketch.create 8 in
    let rng = Splitmix.create seed in
    for _ = 1 to n do
      Sketch.record sk (Splitmix.int rng 12)
    done;
    sk
  in
  let a = mk 1 200 and b = mk 2 150 and c = mk 3 75 in
  let norm l = List.map (fun (e : Sketch.entry) -> (e.key, e.count, e.err)) l in
  let m1 = norm (Sketch.merged [ a; b; c ]) in
  List.iter
    (fun perm ->
      Alcotest.(check (list (triple int int int)))
        "merge is order-independent" m1
        (norm (Sketch.merged perm)))
    [ [ a; c; b ]; [ b; a; c ]; [ b; c; a ]; [ c; a; b ]; [ c; b; a ] ];
  (* Merged totals add. *)
  let sum =
    List.fold_left (fun acc (_, c, _) -> acc + c) 0 m1
  in
  check_bool "merged counts bounded by total" true
    (sum <= Sketch.total a + Sketch.total b + Sketch.total c)

(* ------------------------------------------------------------------ *)
(* Ledger basics                                                       *)
(* ------------------------------------------------------------------ *)

let find_row ~backend ~manager ~runtime ~cls rows =
  List.find_opt
    (fun (r : Ledger.row) ->
      r.backend = backend && r.manager = manager && r.runtime = runtime
      && r.cls = cls)
    rows

let t_ledger_charges () =
  Tcm_obs.reset ();
  Tcm_obs.enable ();
  let l = Ledger.for_manager ~backend:"testb" ~runtime:"test" "m1" in
  Ledger.charge_abort l ~work:3;
  Ledger.charge_abort l ~work:4;
  Ledger.charge_wait l ~cost:7 ~ticks:2;
  Ledger.note_commit l ~work:5;
  Tcm_obs.disable ();
  match find_row ~backend:"testb" ~manager:"m1" ~runtime:"test" ~cls:"-"
          (Ledger.rows ())
  with
  | None -> Alcotest.fail "charged row missing"
  | Some r ->
      check_int "aborts" 2 r.aborts;
      check_int "wasted work" 7 r.wasted_work;
      check_int "waits" 1 r.waits;
      check_int "wait cost" 7 r.wait_cost;
      check_int "wait ticks" 2 r.wait_ticks;
      check_int "commits" 1 r.commits;
      check_int "useful work" 5 r.useful_work;
      check_int "price = wasted + wait ticks" 9 (Ledger.price r)

let t_ledger_disabled_is_off () =
  Tcm_obs.reset ();
  (* Disabled: charges must vanish. *)
  let l = Ledger.for_manager ~backend:"testb" ~runtime:"test" "m2" in
  Ledger.charge_abort l ~work:3;
  Ledger.note_commit l ~work:5;
  check_bool "no row materializes when disabled" true
    (find_row ~backend:"testb" ~manager:"m2" ~runtime:"test" ~cls:"-"
       (Ledger.rows ())
    = None)

let t_ledger_classes () =
  Tcm_obs.reset ();
  Tcm_obs.enable ();
  let slot = Ledger.class_slot "scan" in
  check_bool "registered class gets a non-zero slot" true (slot > 0);
  let l = Ledger.for_manager ~backend:"testb" ~runtime:"test" "m3" in
  Ledger.set_class slot;
  Ledger.charge_abort l ~work:2;
  Ledger.set_class 0;
  Ledger.charge_abort l ~work:1;
  Tcm_obs.disable ();
  let rows = Ledger.rows () in
  (match find_row ~backend:"testb" ~manager:"m3" ~runtime:"test" ~cls:"scan" rows with
  | None -> Alcotest.fail "class row missing"
  | Some r -> check_int "charge landed in the set class" 2 r.wasted_work);
  match find_row ~backend:"testb" ~manager:"m3" ~runtime:"test" ~cls:"-" rows with
  | None -> Alcotest.fail "unclassified row missing"
  | Some r -> check_int "reset class lands in slot 0" 1 r.wasted_work

(* ------------------------------------------------------------------ *)
(* Ledger vs metrics reconciliation (the tentpole invariant)           *)
(* ------------------------------------------------------------------ *)

(* Forced conflicts: every domain hammers the same two tvars, so
   aborts and CM waits are guaranteed; with metrics and obs enabled
   over exactly the same span, [Ledger.reconcile] must hold with zero
   tolerance — both layers observe the same integers. *)
let reconcile_live backend backend_name =
  Tcm_metrics.reset ();
  Tcm_obs.reset ();
  Tcm_metrics.enable ();
  Tcm_obs.enable ();
  let rt = Stm.create ~backend (Tcm_core.Registry.find_exn "greedy") in
  let a = Tvar.make 0 and b = Tvar.make 0 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Splitmix.create (d + 11) in
            for _ = 1 to 300 do
              Stm.atomically rt (fun tx ->
                  let x = Stm.read tx a in
                  Stm.write tx a (x + 1);
                  if Splitmix.bool rng then
                    Stm.write tx b (Stm.read tx b + 1))
            done))
  in
  List.iter Domain.join doms;
  Tcm_metrics.disable ();
  Tcm_obs.disable ();
  let ok, msgs = Ledger.reconcile (Tcm_metrics.snapshot ()) in
  check_bool
    (Printf.sprintf "ledger reconciles with metrics (%s): %s" backend_name
       (String.concat "; " msgs))
    true ok;
  check_int "all increments committed" 1200 (Tvar.peek a);
  (* The ledger saw the same 1200 commits the runtime reports. *)
  let commits =
    List.fold_left
      (fun acc (r : Ledger.row) ->
        if r.backend = backend_name && r.manager = "greedy" then
          acc + r.commits
        else acc)
      0 (Ledger.rows ())
  in
  check_int "ledger commits = runtime commits" (Stm.stats rt).Runtime.n_commits
    commits

let t_reconcile_locator () = reconcile_live Stm.Locator "locator"
let t_reconcile_tl2 () = reconcile_live Stm.Tl2_backend "tl2"

(* Simulator: deterministic forced conflicts (every stream writes
   object 0), wait costs in ticks — reconciliation is exact including
   the wait-cost sum. *)
let t_reconcile_sim () =
  Tcm_metrics.reset ();
  Tcm_obs.reset ();
  Tcm_metrics.enable ();
  Tcm_obs.enable ();
  let streams =
    Array.init 4 (fun _ ->
        fun idx ->
         if idx >= 12 then None
         else Some (Tcm_sim.Spec.txn ~dur:3 [ Tcm_sim.Spec.write ~at:0 ~obj:0 ]))
  in
  ignore
    (Tcm_sim.Engine.run ~horizon:4_000 ~manager:(module Tcm_core.Greedy)
       ~n_objects:1 streams);
  Tcm_metrics.disable ();
  Tcm_obs.disable ();
  let ok, msgs = Ledger.reconcile (Tcm_metrics.snapshot ()) in
  check_bool
    (Printf.sprintf "sim ledger reconciles: %s" (String.concat "; " msgs))
    true ok;
  (* The duel actually produced conflict activity to attribute. *)
  match
    find_row ~backend:"locator" ~manager:"greedy" ~runtime:"sim" ~cls:"-"
      (Ledger.rows ())
  with
  | None -> Alcotest.fail "sim family missing from ledger"
  | Some r ->
      check_bool "sim run committed" true (r.commits > 0);
      check_bool "forced conflicts priced something" true (Ledger.price r > 0)

(* ------------------------------------------------------------------ *)
(* Hot-key tracking                                                    *)
(* ------------------------------------------------------------------ *)

let t_hot_snapshot () =
  Tcm_obs.reset ();
  Tcm_obs.enable ();
  let h = Hot.for_manager ~backend:"testb" ~runtime:"test" "m4" in
  for _ = 1 to 10 do
    Hot.record h 77
  done;
  Hot.record h 5;
  Tcm_obs.disable ();
  let fams = Hot.snapshot () in
  match
    List.find_opt
      (fun ((f : Hot.family), _) -> f.manager = "m4" && f.backend = "testb")
      fams
  with
  | None -> Alcotest.fail "hot family missing"
  | Some (_, entries) -> (
      match entries with
      | (e : Sketch.entry) :: _ ->
          check_int "hottest key" 77 e.key;
          check_int "hottest count" 10 e.count
      | [] -> Alcotest.fail "no hot entries")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let temp_dir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let t_flight_trigger_and_roundtrip () =
  Tcm_obs.reset ();
  Tcm_obs.enable ();
  let l = Ledger.for_manager ~backend:"testb" ~runtime:"test" "m5" in
  Ledger.charge_abort l ~work:6;
  Ledger.note_commit l ~work:2;
  let h = Hot.for_manager ~backend:"testb" ~runtime:"test" "m5" in
  Hot.record h 42;
  Hot.record h 42;
  Tcm_trace.Sink.start ();
  Tcm_trace.Sink.attempt_begin ~txid:1 ~attempt:101 ~tick:0;
  Tcm_trace.Sink.acquired ~txid:1 ~obj:42 ~write:true ~tick:0;
  Tcm_trace.Sink.attempt_abort ~txid:1 ~attempt:101 ~tick:0;
  let dir = temp_dir "tcm-flight-test" in
  let f =
    Flight.create ~window:4 ~miss_frac:0.5 ~min_interval_s:0. ~dir ~tag:"t" ()
  in
  (* Three in-window completions do not trigger... *)
  for _ = 1 to 3 do
    Flight.note_completion f ~cls:"read" ~within_slo:false
  done;
  check_int "no bundle before the window closes" 0 (Flight.count f);
  (* ...the fourth closes the window at 100% missed: breach. *)
  Flight.note_completion f ~cls:"read" ~within_slo:false;
  check_int "breach dumped a bundle" 1 (Flight.count f);
  Flight.force f ~trigger:"manual";
  check_int "force always dumps" 2 (Flight.count f);
  Tcm_trace.Sink.stop ();
  Tcm_obs.disable ();
  let paths = Flight.bundles dir in
  check_int "two bundles on disk" 2 (List.length paths);
  let b = Flight.read_bundle (List.hd paths) in
  Alcotest.(check string) "trigger" "slo_breach" b.Flight.b_trigger;
  Alcotest.(check string) "tag" "t" b.Flight.b_tag;
  check_int "the armed ring's events are in the bundle" 3
    (Array.length b.Flight.b_events);
  check_bool "ledger rows round-trip" true
    (match
       find_row ~backend:"testb" ~manager:"m5" ~runtime:"test" ~cls:"-"
         b.Flight.b_ledger
     with
    | Some r -> r.aborts = 1 && r.wasted_work = 6 && r.commits = 1
    | None -> false);
  check_bool "hot entries round-trip" true
    (List.exists
       (fun ((fam : Hot.family), entries) ->
         fam.manager = "m5"
         && List.exists
              (fun (e : Sketch.entry) -> e.key = 42 && e.count = 2)
              entries)
       b.Flight.b_hot);
  (* Events come back in seq order. *)
  let seqs = Array.to_list (Array.map (fun (e : Tcm_trace.Event.t) -> e.seq) b.Flight.b_events) in
  Alcotest.(check (list int)) "sorted by seq" (List.sort compare seqs) seqs

let t_flight_shed_spike () =
  Tcm_obs.reset ();
  let dir = temp_dir "tcm-flight-shed" in
  let f =
    Flight.create ~shed_spike:3 ~min_interval_s:0. ~dir ~tag:"shed" ()
  in
  Flight.note_drop f;
  Flight.note_drop f;
  check_int "below the spike threshold" 0 (Flight.count f);
  Flight.note_drop f;
  check_int "spike dumped" 1 (Flight.count f);
  let b = Flight.read_bundle (List.hd (Flight.bundles dir)) in
  Alcotest.(check string) "trigger" "shed_spike" b.Flight.b_trigger

(* ------------------------------------------------------------------ *)
(* Priced conflict scorer (Analysis.price)                             *)
(* ------------------------------------------------------------------ *)

let ev seq kind a b c tick = { Tcm_trace.Event.seq; dom = 0; tick; kind; a; b; c }

let t_price_synthetic () =
  let open Tcm_trace.Event in
  (* tx1: two opens then abort (both wasted); tx2: one open, a priced
     wait of 1 seq unit, then commit (open useful). *)
  let trace =
    [|
      ev 0 Begin 1 101 0 0;
      ev 1 Open 1 10 1 0;
      ev 2 Open 1 11 1 0;
      ev 3 Begin 2 201 0 0;
      ev 4 Open 2 10 1 0;
      ev 5 Wait_begin 2 1 0 0;
      ev 6 Wait_end 2 1 0 0;
      ev 7 Abort 1 101 0 0;
      ev 8 Commit 2 201 0 0;
    |]
  in
  let p = Tcm_trace.Analysis.price trace in
  check_int "attempts" 2 p.Tcm_trace.Analysis.p_attempts;
  check_int "committed" 1 p.Tcm_trace.Analysis.p_committed;
  check_int "aborted" 1 p.Tcm_trace.Analysis.p_aborted;
  check_int "work total" 3 p.Tcm_trace.Analysis.work_total;
  check_int "work wasted" 2 p.Tcm_trace.Analysis.work_wasted;
  check_int "waits" 1 p.Tcm_trace.Analysis.waits;
  check_int "wait cost (seq units)" 1 p.Tcm_trace.Analysis.wait_cost;
  check_int "price" 3 p.Tcm_trace.Analysis.price;
  Alcotest.(check (float 1e-9))
    "price per commit" 3.0 p.Tcm_trace.Analysis.price_per_commit

let t_price_wait_closed_by_abort () =
  let open Tcm_trace.Event in
  (* An attempt aborted while blocked never emits Wait_end: the abort
     closes (and prices) the interval. *)
  let trace =
    [|
      ev 0 Begin 1 101 0 0;
      ev 1 Wait_begin 1 2 0 0;
      ev 4 Abort 1 101 0 0;
    |]
  in
  let p = Tcm_trace.Analysis.price trace in
  check_int "wait closed at terminal event" 1 p.Tcm_trace.Analysis.waits;
  check_int "wait priced to the abort" 3 p.Tcm_trace.Analysis.wait_cost;
  check_bool "no commits: price per commit is infinite" true
    (p.Tcm_trace.Analysis.price_per_commit = infinity)

(* Live capture: the scorer's wasted work is bounded by the ledger's
   on the same run — the trace records Open events at write installs
   only, while the ledger's n_opens counts reads too, so trace-side
   waste is a per-attempt subset of ledger-side waste. *)
let t_price_live_vs_ledger () =
  Tcm_obs.reset ();
  Tcm_obs.enable ();
  Tcm_trace.Sink.start ();
  let rt = Stm.create (Tcm_core.Registry.find_exn "greedy") in
  let a = Tvar.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              Stm.atomically rt (fun tx -> Stm.modify tx a succ)
            done))
  in
  List.iter Domain.join doms;
  Tcm_trace.Sink.stop ();
  Tcm_obs.disable ();
  let trace = Tcm_trace.Sink.collect () in
  let p = Tcm_trace.Analysis.price trace in
  let wasted_ledger =
    List.fold_left
      (fun acc (r : Ledger.row) ->
        if r.backend = "locator" && r.manager = "greedy" && r.runtime = "live"
        then acc + r.wasted_work
        else acc)
      0 (Ledger.rows ())
  in
  check_bool "trace captured the run" true
    (p.Tcm_trace.Analysis.work_total > 0);
  check_bool
    (Printf.sprintf "trace waste (%d) bounded by ledger waste (%d)"
       p.Tcm_trace.Analysis.work_wasted wasted_ledger)
    true
    (p.Tcm_trace.Analysis.work_wasted <= wasted_ledger)

let () =
  Alcotest.run "tcm_obs"
    [
      ( "sketch",
        [
          Alcotest.test_case "exact under capacity" `Quick t_sketch_exact;
          Alcotest.test_case "space-saving bounds" `Quick t_sketch_bounds;
          Alcotest.test_case "merge order-independent" `Quick
            t_sketch_merge_order_independent;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "charges accumulate" `Quick t_ledger_charges;
          Alcotest.test_case "disabled is off" `Quick t_ledger_disabled_is_off;
          Alcotest.test_case "class slots" `Quick t_ledger_classes;
        ] );
      ( "reconcile",
        [
          Alcotest.test_case "locator forced conflicts" `Quick
            t_reconcile_locator;
          Alcotest.test_case "tl2 forced conflicts" `Quick t_reconcile_tl2;
          Alcotest.test_case "simulator duel" `Quick t_reconcile_sim;
        ] );
      ( "hot",
        [ Alcotest.test_case "snapshot merges domains" `Quick t_hot_snapshot ] );
      ( "flight",
        [
          Alcotest.test_case "breach trigger + round-trip" `Quick
            t_flight_trigger_and_roundtrip;
          Alcotest.test_case "shed spike trigger" `Quick t_flight_shed_spike;
        ] );
      ( "price",
        [
          Alcotest.test_case "synthetic trace" `Quick t_price_synthetic;
          Alcotest.test_case "wait closed by abort" `Quick
            t_price_wait_closed_by_abort;
          Alcotest.test_case "live capture vs ledger" `Quick
            t_price_live_vs_ledger;
        ] );
    ]
