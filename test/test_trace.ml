(** Tests for the tcm.trace subsystem: the SPSC ring (wraparound, drop
    accounting, drain-while-writing), the sink lifecycle and disabled
    fast path (zero events, no allocation), the emit sites in the STM
    runtime and the simulator engine, the trace analyses on hand-built
    and simulator traces, and the JSONL / Chrome exporters. *)

module Event = Tcm_trace.Event
module Ring = Tcm_trace.Ring
module Sink = Tcm_trace.Sink
module Analysis = Tcm_trace.Analysis
module Export = Tcm_trace.Export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let push_n r ~from n =
  for i = from to from + n - 1 do
    Ring.push r ~seq:i ~kind:(i mod 7) ~a:(i * 3) ~b:(i * 5) ~c:(i * 7) ~tick:i
  done

let drain_list r =
  let acc = ref [] in
  let n =
    Ring.drain r ~f:(fun ~seq ~kind ~a ~b ~c ~tick ->
        acc := (seq, kind, a, b, c, tick) :: !acc)
  in
  (n, List.rev !acc)

let t_ring_wraparound () =
  let r = Ring.create ~capacity:8 ~dom:0 () in
  check_int "capacity rounded" 8 (Ring.capacity r);
  (* Several full laps around the buffer, draining between laps. *)
  let from = ref 0 in
  for _ = 1 to 5 do
    push_n r ~from:!from 8;
    let n, evs = drain_list r in
    check_int "lap drains all" 8 n;
    List.iteri
      (fun i (seq, kind, a, b, c, tick) ->
        let e = !from + i in
        check_int "seq" e seq;
        check_int "kind" (e mod 7) kind;
        check_int "a" (e * 3) a;
        check_int "b" (e * 5) b;
        check_int "c" (e * 7) c;
        check_int "tick" e tick)
      evs;
    from := !from + 8
  done;
  check_int "no drops" 0 (Ring.dropped r)

let t_ring_drops_when_full () =
  let r = Ring.create ~capacity:8 ~dom:0 () in
  push_n r ~from:0 11;
  check_int "drops counted" 3 (Ring.dropped r);
  let n, evs = drain_list r in
  check_int "kept the first capacity-many" 8 n;
  let seqs = List.map (fun (s, _, _, _, _, _) -> s) evs in
  Alcotest.(check (list int)) "oldest events kept" [ 0; 1; 2; 3; 4; 5; 6; 7 ] seqs;
  (* Space freed by the drain is usable again. *)
  push_n r ~from:100 4;
  let n, _ = drain_list r in
  check_int "post-drain pushes land" 4 n

let t_ring_drain_while_writing () =
  let total = 10_000 in
  (* Capacity >= total: the concurrency is real but no push can drop, so
     the expected event set is deterministic. *)
  let r = Ring.create ~capacity:total ~dom:1 () in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to total - 1 do
          Ring.push r ~seq:i ~kind:0 ~a:i ~b:0 ~c:0 ~tick:0
        done)
  in
  let seen = ref 0 in
  let expect = ref 0 in
  while !seen < total do
    ignore
      (Ring.drain r ~f:(fun ~seq ~kind:_ ~a:_ ~b:_ ~c:_ ~tick:_ ->
           check_int "drained in push order" !expect seq;
           incr expect;
           incr seen))
  done;
  Domain.join writer;
  check_int "all events seen" total !seen;
  check_int "no drops" 0 (Ring.dropped r)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let emit_one_of_each () =
  Sink.attempt_begin ~txid:10 ~attempt:100 ~tick:1;
  Sink.acquired ~txid:10 ~obj:7 ~write:true ~tick:2;
  Sink.conflict ~me:10 ~other:11 ~decision:Event.d_block ~tick:3;
  Sink.wait_begin ~me:10 ~enemy:11 ~tick:4;
  Sink.wait_end ~me:10 ~enemy:11 ~tick:5;
  Sink.attempt_abort ~txid:10 ~attempt:100 ~tick:6;
  Sink.attempt_commit ~txid:10 ~attempt:101 ~tick:7

let t_sink_roundtrip () =
  Sink.start ();
  check_bool "enabled after start" true (Sink.enabled ());
  emit_one_of_each ();
  Sink.stop ();
  check_bool "disabled after stop" false (Sink.enabled ());
  let tr = Sink.collect () in
  check_int "seven events" 7 (Array.length tr);
  let kinds = Array.map (fun (e : Event.t) -> e.kind) tr in
  Alcotest.(check bool)
    "kinds in emit order" true
    (kinds
    = [|
        Event.Begin; Event.Open; Event.Resolve; Event.Wait_begin; Event.Wait_end;
        Event.Abort; Event.Commit;
      |]);
  Array.iteri (fun i (e : Event.t) -> check_int "seq is dense" i e.seq) tr;
  let r = tr.(2) in
  check_int "resolve me" 10 r.a;
  check_int "resolve other" 11 r.b;
  check_int "resolve decision" Event.d_block r.c;
  check_int "resolve tick" 3 r.tick;
  let o = tr.(1) in
  check_int "open obj" 7 o.b;
  check_int "open write flag" 1 o.c;
  check_int "sink drops" 0 (Sink.drops ());
  check_int "second collect returns nothing new" 0 (Array.length (Sink.collect ()))

let t_sink_disabled_no_events () =
  Sink.start ();
  Sink.stop ();
  for _ = 1 to 1000 do
    emit_one_of_each ()
  done;
  check_int "no events while stopped" 0 (Array.length (Sink.collect ()))

let t_sink_disabled_no_alloc () =
  Sink.stop ();
  (* Warm up the code paths (and any lazy DLS slot for this domain). *)
  emit_one_of_each ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Sink.attempt_begin ~txid:1 ~attempt:2 ~tick:0;
    Sink.conflict ~me:1 ~other:2 ~decision:0 ~tick:0;
    Sink.acquired ~txid:1 ~obj:3 ~write:false ~tick:0
  done;
  let after = Gc.minor_words () in
  (* The measurement itself allocates a couple of boxed floats; anything
     beyond a small constant means the disabled path allocates. *)
  check_bool
    (Printf.sprintf "disabled emits allocate nothing (delta=%.0f words)" (after -. before))
    true
    (after -. before < 256.)

let t_sink_generation_isolation () =
  Sink.start ();
  emit_one_of_each ();
  Sink.stop ();
  (* A new capture must not see the previous capture's events. *)
  Sink.start ();
  Sink.attempt_begin ~txid:99 ~attempt:999 ~tick:0;
  Sink.stop ();
  let tr = Sink.collect () in
  check_int "only the new capture" 1 (Array.length tr);
  check_int "fresh seq counter" 0 tr.(0).Event.seq;
  check_int "new event" 99 tr.(0).Event.a

(* ------------------------------------------------------------------ *)
(* STM runtime emit sites                                              *)
(* ------------------------------------------------------------------ *)

let t_stm_trace_sanity () =
  let open Tcm_stm in
  let rt = Stm.create (Tcm_core.Registry.find_exn "greedy") in
  let v = Stm.Tvar.make 0 in
  Sink.start ();
  for _ = 1 to 50 do
    Stm.atomically rt (fun tx -> Stm.write tx v (Stm.read tx v + 1))
  done;
  Sink.stop ();
  let tr = Sink.collect () in
  check_int "final value" 50 (Stm.atomically rt (fun tx -> Stm.read tx v));
  let count k =
    Array.fold_left (fun n (e : Event.t) -> if e.kind = k then n + 1 else n) 0 tr
  in
  check_int "one begin per attempt" 50 (count Event.Begin);
  check_int "uncontended: all commit" 50 (count Event.Commit);
  check_int "uncontended: no aborts" 0 (count Event.Abort);
  check_int "one locator install per txn" 50 (count Event.Open);
  let wa = Analysis.wasted_work tr in
  check_int "no wasted opens" 0 wa.Analysis.opens_wasted;
  let pc = Analysis.pending_commit tr in
  check_int "no conflicts" 0 pc.Analysis.conflicts

(* The TL2 backend must speak the same event schema through the same
   sink: uncontended increments produce the begin/open/commit shape the
   analyses expect, with no backend-specific event kinds. *)
let t_tl2_trace_sanity () =
  let open Tcm_stm in
  let rt =
    Stm.create ~backend:Stm.Tl2_backend (Tcm_core.Registry.find_exn "greedy")
  in
  let v = Stm.Tvar.make 0 in
  Sink.start ();
  for _ = 1 to 50 do
    Stm.atomically rt (fun tx -> Stm.write tx v (Stm.read tx v + 1))
  done;
  Sink.stop ();
  let tr = Sink.collect () in
  check_int "final value" 50 (Stm.atomically rt (fun tx -> Stm.read tx v));
  let count k =
    Array.fold_left (fun n (e : Event.t) -> if e.kind = k then n + 1 else n) 0 tr
  in
  check_int "one begin per attempt" 50 (count Event.Begin);
  check_int "uncontended: all commit" 50 (count Event.Commit);
  check_int "uncontended: no aborts" 0 (count Event.Abort);
  check_int "one buffered-write open per txn" 50 (count Event.Open);
  let pc = Analysis.pending_commit tr in
  check_int "no conflicts" 0 pc.Analysis.conflicts

(* Deterministic TL2 conflict: a fabricated enemy holds the stripe for
   [v], so the committing transaction's lock acquisition consults the
   manager exactly once; Aggressive says abort_other and the steal
   succeeds on the first try.  The capture must carry the resolve event
   (same d_* code namespace as the locator backend) and pending-commit
   must hold — the stealer commits. *)
let t_tl2_trace_forced_conflict () =
  let open Tcm_stm in
  let rt =
    Stm.create ~backend:Stm.Tl2_backend (Tcm_core.Registry.find_exn "aggressive")
  in
  let v = Stm.Tvar.make 0 in
  let enemy = Txn.new_attempt (Txn.new_shared ()) in
  Tl2.Internal.lock_for_test v enemy;
  Sink.start ();
  Stm.atomically rt (fun tx -> Stm.write tx v 7);
  Sink.stop ();
  let tr = Sink.collect () in
  Tl2.Internal.unlock_for_test v enemy;
  check_int "committed over the held lock" 7 (Stm.Tvar.peek v);
  let count p = Array.fold_left (fun n e -> if p e then n + 1 else n) 0 tr in
  check_int "one begin" 1 (count (fun (e : Event.t) -> e.kind = Event.Begin));
  check_int "one commit" 1 (count (fun (e : Event.t) -> e.kind = Event.Commit));
  check_int "no aborts" 0 (count (fun (e : Event.t) -> e.kind = Event.Abort));
  check_int "exactly one abort_other resolve" 1
    (count (fun (e : Event.t) -> e.kind = Event.Resolve && e.c = Event.d_abort_other));
  let pc = Analysis.pending_commit tr in
  check_int "the conflict was captured" 1 pc.Analysis.conflicts;
  check_int "pending-commit holds: the stealer commits" 0 pc.Analysis.violations

(* ------------------------------------------------------------------ *)
(* Analysis on hand-built traces                                       *)
(* ------------------------------------------------------------------ *)

let ev seq kind a b c : Event.t = { Event.seq; dom = 0; tick = 0; kind; a; b; c }

(* Two transactions duel; both end up aborted: a pending-commit
   violation at both resolves. *)
let t_analysis_violation () =
  let tr =
    [|
      ev 0 Event.Begin 1 101 0;
      ev 1 Event.Begin 2 102 0;
      ev 2 Event.Resolve 1 2 Event.d_abort_other;
      ev 3 Event.Abort 2 102 0;
      ev 4 Event.Begin 2 103 0;
      ev 5 Event.Resolve 2 1 Event.d_abort_other;
      ev 6 Event.Abort 1 101 0;
      ev 7 Event.Abort 2 103 0;
    |]
  in
  let pc = Analysis.pending_commit tr in
  check_int "conflicts" 2 pc.Analysis.conflicts;
  check_int "both violate" 2 pc.Analysis.violations;
  check_int "none undecidable" 0 pc.Analysis.undecidable;
  check_int "first violation" 2 pc.Analysis.first_violation_seq

(* The paper's own chain shape: T2 aborts T1, T3 later aborts T2, T3
   commits.  Both conflict parties of the first resolve die, yet the
   property holds because T3 is live and commits — the checker must be
   global, not per-pair. *)
let t_analysis_chain_ok () =
  let tr =
    [|
      ev 0 Event.Begin 1 101 0;
      ev 1 Event.Begin 2 102 0;
      ev 2 Event.Begin 3 103 0;
      ev 3 Event.Resolve 2 1 Event.d_abort_other;
      ev 4 Event.Abort 1 101 0;
      ev 5 Event.Resolve 3 2 Event.d_abort_other;
      ev 6 Event.Abort 2 102 0;
      ev 7 Event.Commit 3 103 0;
    |]
  in
  let pc = Analysis.pending_commit tr in
  check_int "no violations on the chain" 0 pc.Analysis.violations;
  check_int "all conflicts seen" 2 pc.Analysis.conflicts;
  let ca = Analysis.cascades tr in
  check_int "cascade length two" 2 ca.Analysis.max_cascade;
  check_int "two enemy aborts" 2 ca.Analysis.enemy_aborts

let t_analysis_undecidable () =
  let tr =
    [|
      ev 0 Event.Begin 1 101 0;
      ev 1 Event.Begin 2 102 0;
      ev 2 Event.Resolve 1 2 Event.d_abort_other;
      ev 3 Event.Abort 2 102 0;
      (* Txn 1 never terminates in the trace (truncated capture). *)
    |]
  in
  let pc = Analysis.pending_commit tr in
  check_int "not a violation" 0 pc.Analysis.violations;
  check_int "undecidable instead" 1 pc.Analysis.undecidable

let t_analysis_wasted_work () =
  let tr =
    [|
      ev 0 Event.Begin 1 101 0;
      ev 1 Event.Open 1 7 1;
      ev 2 Event.Open 1 8 1;
      ev 3 Event.Abort 1 101 0;
      ev 4 Event.Begin 1 102 0;
      ev 5 Event.Open 1 7 1;
      ev 6 Event.Commit 1 102 0;
    |]
  in
  let wa = Analysis.wasted_work tr in
  check_int "attempts" 2 wa.Analysis.attempts;
  check_int "aborted" 1 wa.Analysis.aborted;
  check_int "total opens" 3 wa.Analysis.opens_total;
  check_int "opens in the aborted attempt" 2 wa.Analysis.opens_wasted

(* ------------------------------------------------------------------ *)
(* Simulator traces                                                    *)
(* ------------------------------------------------------------------ *)

let t_sim_greedy_chain () =
  let s = 6 in
  let granularity = 2 in
  let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~granularity ~s () in
  Sink.start ();
  let r = Tcm_sim.Engine.run_instance ~ranks ~manager:(module Tcm_core.Greedy) inst in
  Sink.stop ();
  let tr = Sink.collect () in
  let pc = Analysis.pending_commit tr in
  check_bool "chain produces conflicts" true (pc.Analysis.conflicts > 0);
  check_int "greedy holds pending-commit" 0 pc.Analysis.violations;
  check_int "trace and engine agree on makespan"
    (Option.get r.Tcm_sim.Engine.makespan)
    (Analysis.empirical_makespan tr);
  let mk =
    Analysis.makespan_report
      ~optimal:(granularity * Tcm_sched.Adversarial.optimal_makespan ~s)
      ~bound_factor:(Tcm_sched.Bounds.pending_commit_factor ~s)
      tr
  in
  check_bool "within the s(s+1)+2 bound" true mk.Analysis.within_bound;
  (* Every begin is balanced by a terminal event in a completed run. *)
  let count k =
    Array.fold_left (fun n (e : Event.t) -> if e.kind = k then n + 1 else n) 0 tr
  in
  check_int "attempts balance" (count Event.Begin)
    (count Event.Commit + count Event.Abort)

let t_sim_aggressive_duel_violates () =
  let streams =
    Array.init 2 (fun _ ->
        fun _ -> Some (Tcm_sim.Spec.txn ~dur:3 [ Tcm_sim.Spec.write ~at:0 ~obj:0 ]))
  in
  Sink.start ();
  let r =
    Tcm_sim.Engine.run ~horizon:60 ~manager:(module Tcm_core.Aggressive) ~n_objects:1
      streams
  in
  Sink.stop ();
  let tr = Sink.collect () in
  check_int "livelock: nothing commits" 0 r.Tcm_sim.Engine.commits;
  let pc = Analysis.pending_commit tr in
  check_bool "conflicts happened" true (pc.Analysis.conflicts > 0);
  check_bool "aggressive violates pending-commit" true (pc.Analysis.violations > 0)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "tcm_trace_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let t_export_jsonl_roundtrip () =
  let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~s:4 () in
  Sink.start ();
  ignore (Tcm_sim.Engine.run_instance ~ranks ~manager:(module Tcm_core.Greedy) inst);
  Sink.stop ();
  let tr = Sink.collect () in
  check_bool "nonempty trace" true (Array.length tr > 0);
  with_temp_file (fun path ->
      Export.write_jsonl ~drops:3 path tr;
      let tr', drops = Export.read_jsonl path in
      check_int "drops from header" 3 drops;
      check_int "same length" (Array.length tr) (Array.length tr');
      Array.iteri
        (fun i e -> check_bool "events roundtrip" true (e = tr'.(i)))
        tr)

(* Multi-section dumps (one header per manager, as bench --trace now
   writes them): [read_jsonl_sections] keeps the sections and their
   names apart, and the flat [read_jsonl] concatenates them with
   re-offset seqs so downstream analyses still see a strictly
   increasing order. *)
let t_export_jsonl_sections () =
  let mk base n =
    Array.init n (fun i -> ev (base + i) Event.Open 1 i 1)
  in
  let a = mk 0 4 and b = mk 1 3 in
  with_temp_file (fun path ->
      let oc = open_out path in
      Export.output_jsonl ~drops:1 ~manager:"greedy" oc a;
      Export.output_jsonl ~drops:2 ~manager:"backoff" oc b;
      close_out oc;
      (match Export.read_jsonl_sections path with
      | [ (Some "greedy", a', d1); (Some "backoff", b', d2) ] ->
          check_int "first section intact" (Array.length a) (Array.length a');
          check_int "second section intact" (Array.length b) (Array.length b');
          check_int "per-section drops" 1 d1;
          check_int "per-section drops" 2 d2;
          check_int "section seqs unshifted" 1 b'.(0).Event.seq
      | sections ->
          Alcotest.failf "expected 2 named sections, got %d"
            (List.length sections));
      let all, drops = Export.read_jsonl path in
      check_int "concatenated" 7 (Array.length all);
      check_int "drops summed" 3 drops;
      Array.iteri
        (fun i e ->
          if i > 0 then
            check_bool "seqs strictly increasing after re-offset" true
              (e.Event.seq > all.(i - 1).Event.seq))
        all)

(* Single-section files written by the old writer keep reading the
   same way: one anonymous section. *)
let t_export_jsonl_single_section () =
  with_temp_file (fun path ->
      Export.write_jsonl ~drops:0 path [| ev 5 Event.Begin 1 101 0 |];
      match Export.read_jsonl_sections path with
      | [ (None, a, 0) ] -> check_int "one event" 1 (Array.length a)
      | _ -> Alcotest.fail "expected one anonymous section")

(* Every artifact reader turns a bad line into the [Failure] the CLIs
   catch, naming the file and the line, instead of letting the codec's
   [Parse_error] (or a half-read record) escape.  Line 1 is a valid
   header in each case, so the bad line is line 2. *)
let t_export_jsonl_rejects_garbage () =
  let read_trace p = ignore (Export.read_jsonl p) in
  let read_metrics p = ignore (Tcm_metrics.Export.read_jsonl p) in
  let read_flight p = ignore (Tcm_obs.Flight.read_bundle p) in
  let trace_hdr = {|{"schema":"tcm-trace/1","events":1,"drops":0}|} in
  let metrics_hdr = {|{"schema":"tcm-metrics/1","time":1.5,"entries":1,"windows":0}|} in
  let flight_hdr =
    {|{"schema":"tcm-flight/1","tag":"t","trigger":"manual","unix_ms":1,"events":1,"drops":0}|}
  in
  List.iter
    (fun (name, read, header, line) ->
      with_temp_file (fun path ->
          let oc = open_out path in
          output_string oc (header ^ "\n" ^ line ^ "\n");
          close_out oc;
          match read path with
          | () -> Alcotest.failf "%s: malformed line accepted" name
          | exception Failure msg ->
              let where = path ^ ":2:" in
              if not (String.starts_with ~prefix:where msg) then
                Alcotest.failf "%s: error %S does not name %s" name msg where))
    [
      ("trace truncated", read_trace, trace_hdr, {|{"seq":1,"dom":0,"tick":0,"kind":"begin"|});
      ("trace non-json", read_trace, trace_hdr, {|{"seq":not-a-number}|});
      ( "trace wrong type",
        read_trace,
        trace_hdr,
        {|{"seq":"1","dom":0,"tick":0,"kind":"begin","a":1,"b":2,"c":0}|} );
      ("metrics truncated", read_metrics, metrics_hdr, {|{"type":"counter","name":"x","labels":{|});
      ("metrics non-json", read_metrics, metrics_hdr, "counter x 1");
      ( "metrics wrong type",
        read_metrics,
        metrics_hdr,
        {|{"type":"counter","name":"x","labels":{},"value":"1"}|} );
      ("flight truncated", read_flight, flight_hdr, {|{"rec":"hot","backend":"b"|});
      ("flight non-json", read_flight, flight_hdr, "rec=event seq=1");
      ( "flight wrong type",
        read_flight,
        flight_hdr,
        {|{"rec":"event","seq":1,"dom":0,"tick":0,"kind":7,"a":1,"b":2,"c":0}|} );
    ]

let t_export_chrome_shape () =
  let tr =
    [|
      ev 0 Event.Begin 1 101 0;
      ev 1 Event.Open 1 7 1;
      ev 2 Event.Resolve 1 2 Event.d_block;
      ev 3 Event.Wait_begin 1 2 0;
      (* Aborted while waiting: no Wait_end — the exporter must close
         the wait slice before closing the attempt slice. *)
      ev 4 Event.Abort 1 101 0;
    |]
  in
  with_temp_file (fun path ->
      Export.write_chrome path tr;
      let ic = open_in path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let has sub =
        let n = String.length body and m = String.length sub in
        let rec go i = i + m <= n && (String.sub body i m = sub || go (i + 1)) in
        go 0
      in
      check_bool "is a traceEvents doc" true (has "{\"traceEvents\":[");
      check_bool "has begin slice" true (has "\"ph\":\"B\"");
      check_bool "has end slice" true (has "\"ph\":\"E\"");
      check_bool "has instants" true (has "\"ph\":\"i\"");
      let count sub =
        let n = String.length body and m = String.length sub in
        let c = ref 0 in
        for i = 0 to n - m do
          if String.sub body i m = sub then incr c
        done;
        !c
      in
      check_int "B/E slices balance" (count "\"ph\":\"B\"") (count "\"ph\":\"E\""))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick t_ring_wraparound;
          Alcotest.test_case "drops when full" `Quick t_ring_drops_when_full;
          Alcotest.test_case "drain while writing" `Quick t_ring_drain_while_writing;
        ] );
      ( "sink",
        [
          Alcotest.test_case "roundtrip" `Quick t_sink_roundtrip;
          Alcotest.test_case "disabled: no events" `Quick t_sink_disabled_no_events;
          Alcotest.test_case "disabled: no allocation" `Quick t_sink_disabled_no_alloc;
          Alcotest.test_case "generations isolate captures" `Quick
            t_sink_generation_isolation;
        ] );
      ( "stm",
        [
          Alcotest.test_case "emit sites" `Quick t_stm_trace_sanity;
          Alcotest.test_case "tl2 emit sites" `Quick t_tl2_trace_sanity;
          Alcotest.test_case "tl2 forced conflict" `Quick t_tl2_trace_forced_conflict;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "violation detected" `Quick t_analysis_violation;
          Alcotest.test_case "chain is not a violation" `Quick t_analysis_chain_ok;
          Alcotest.test_case "truncated is undecidable" `Quick t_analysis_undecidable;
          Alcotest.test_case "wasted work" `Quick t_analysis_wasted_work;
        ] );
      ( "sim",
        [
          Alcotest.test_case "greedy chain holds pending-commit" `Quick
            t_sim_greedy_chain;
          Alcotest.test_case "aggressive duel violates" `Quick
            t_sim_aggressive_duel_violates;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick t_export_jsonl_roundtrip;
          Alcotest.test_case "jsonl sections roundtrip" `Quick
            t_export_jsonl_sections;
          Alcotest.test_case "jsonl single anonymous section" `Quick
            t_export_jsonl_single_section;
          Alcotest.test_case "jsonl rejects garbage" `Quick t_export_jsonl_rejects_garbage;
          Alcotest.test_case "chrome shape" `Quick t_export_chrome_shape;
        ] );
    ]
