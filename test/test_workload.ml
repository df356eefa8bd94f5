(** Tests for the workload layer: statistics, the live-STM harness, the
    simulator-backed figure models, the figure sweeps and the report
    rendering. *)

open Tcm_workload
module Stats = Tcm_dist.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let t_mean () =
  check_float "empty" 0. (Stats.mean []);
  check_float "values" 2. (Stats.mean [ 1.; 2.; 3. ])

let t_stddev () =
  check_float "empty" 0. (Stats.stddev []);
  check_float "singleton" 0. (Stats.stddev [ 5. ]);
  check_float "known sample" 1. (Stats.stddev [ 1.; 2.; 3. ])

let t_percentile () =
  let xs = Stats.Sample.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  check_float "p50" 50. (Stats.Sample.percentile xs 50.);
  check_float "p99" 99. (Stats.Sample.percentile xs 99.);
  check_float "p100" 100. (Stats.Sample.percentile xs 100.);
  (* An empty sample has no percentiles: nan, not a fake 0. *)
  check_bool "empty is nan" true
    (Float.is_nan (Stats.Sample.percentile (Stats.Sample.create 0) 50.))

let t_json_emit () =
  let open Report.Json in
  Alcotest.(check string) "compact; non-finite floats are null"
    {|{"a":1,"b":null,"c":[true,"x\n"],"d":2.5}|}
    (to_string
       (Obj
          [
            ("a", Int 1);
            ("b", Float Float.nan);
            ("c", Arr [ Bool true; Str "x\n" ]);
            ("d", Float 2.5);
          ]))

let t_json_parse_roundtrip () =
  let open Report.Json in
  let v =
    Obj
      [
        ("schema", Str "tcm-bench/2");
        ("seed", Int 42);
        ("minor_words", Float 8123.5);
        ("empty", Arr []);
        ("rows", Arr [ Obj [ ("threads", Int 2); ("ok", Bool true); ("gap", Null) ] ]);
        ("text", Str "a\"b\\c\nd\twide: \xc3\xa9 ctl:\001");
      ]
  in
  (match of_string (to_string v) with
  | v' when v' = v -> ()
  | v' -> Alcotest.fail (Printf.sprintf "roundtrip drifted: %s" (to_string v')));
  (* Whitespace and \u escapes, as other emitters write them. *)
  (match of_string "  { \"a\" : [ 1 , 2.5 , \"\\u0041\\u00e9\" ] }\n" with
  | Obj [ ("a", Arr [ Int 1; Float 2.5; Str "A\xc3\xa9" ]) ] -> ()
  | j -> Alcotest.fail (Printf.sprintf "unexpected parse: %s" (to_string j)));
  check_bool "member finds" true (member "seed" v = Some (Int 42));
  check_bool "member misses" true (member "nope" v = None);
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (try
           ignore (of_string bad);
           false
         with Parse_error _ -> true))
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "tru";
      "\"unterminated";
      "1 2";
      (* RFC 8259: control characters inside strings must be escaped. *)
      "\"tab\there\"";
      "\"ctl\001\"";
      "\"after an escape\\n\001\"";
      "\"\\u00zz\"";
    ]

let t_cv () =
  check_float "no spread" 0. (Stats.cv [ 4.; 4.; 4. ]);
  check_float "zero mean" 0. (Stats.cv [ 0.; 0. ]);
  check_bool "high variance detected" true (Stats.cv [ 1.; 1.; 1.; 100. ] > 1.)

let t_histogram () =
  let h = Stats.histogram ~buckets:4 ~lo:0. ~hi:4. [ 0.5; 1.5; 1.6; 3.9; 7. ] in
  Alcotest.(check (array int)) "buckets" [| 1; 2; 0; 1 |] h

let t_histogram_upper_edge () =
  (* Regression: a sample exactly at [hi] (the p100 of a latency run)
     must land in the last bucket, not vanish. *)
  let h = Stats.histogram ~buckets:4 ~lo:0. ~hi:4. [ 0.; 4. ] in
  Alcotest.(check (array int)) "both edges kept" [| 1; 0; 0; 1 |] h;
  let n = Array.fold_left ( + ) 0 (Stats.histogram ~buckets:8 ~lo:0. ~hi:10. [ 10.; 10. ]) in
  check_int "no sample at hi dropped" 2 n

(* ------------------------------------------------------------------ *)
(* Harness (live STM)                                                  *)
(* ------------------------------------------------------------------ *)

let t_structure_names () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        "roundtrip" (Harness.structure_name s)
        (Harness.structure_name (Harness.structure_of_name (Harness.structure_name s))))
    [ Harness.List_s; Harness.Skiplist_s; Harness.Rbtree_s; Harness.Rbforest_s ];
  check_bool "unknown raises" true
    (try
       ignore (Harness.structure_of_name "heap");
       false
     with Invalid_argument _ -> true)

let t_harness_runs () =
  let cfg =
    { Harness.default with threads = 2; duration_s = 0.05; structure = Harness.Skiplist_s }
  in
  let o = Harness.run cfg in
  check_bool "commits happened" true (o.Harness.commits > 0);
  check_int "per-thread adds up" o.Harness.commits (Array.fold_left ( + ) 0 o.Harness.per_thread);
  check_bool "throughput positive" true (o.Harness.throughput > 0.);
  check_bool "latency sampled" true (o.Harness.latency_p50_us > 0.);
  check_bool "p99 >= p50" true (o.Harness.latency_p99_us >= o.Harness.latency_p50_us);
  (* The GC accounting must see the worker domains' allocation (the
     skiplist workload allocates per txn). *)
  check_bool "minor words counted" true (o.Harness.minor_words > 0.);
  check_bool "major words non-negative" true (o.Harness.major_words >= 0.)

(* [Gc.quick_stat] counts every domain's allocation in OCaml 5: summed
   per-domain deltas of it read a 2-domain run at about twice its real
   words per commit. *)
let t_harness_minor_words_per_domain () =
  let per_commit threads =
    let o = Harness.run { Harness.default with threads; duration_s = 0.2 } in
    o.Harness.minor_words /. float_of_int o.Harness.commits
  in
  let one = per_commit 1 and two = per_commit 2 in
  if two > 1.5 *. one then
    Alcotest.failf "fig1 list: %.1f minor words per commit at 2 domains, %.1f at 1" two one

(* The meter is exact: two 1-domain runs of the same workload read the
   same words per commit.  [Gc.counters]' minor field, which the
   meter used to read, counts the words since the last minor
   collection at one eighth, and read 31.1-38.1 words per commit over
   four 50 ms fig1 runs. *)
let t_harness_minor_words_exact () =
  let per_commit () =
    let o = Harness.run { Harness.default with threads = 1; duration_s = 0.05 } in
    o.Harness.minor_words /. float_of_int o.Harness.commits
  in
  let a = per_commit () and b = per_commit () in
  if Float.abs (a -. b) >= 1. then
    Alcotest.failf "fig1 list at 1 domain: %.2f and %.2f minor words per commit" a b

let t_harness_post_work_slows () =
  let base = { Harness.default with threads = 1; duration_s = 0.05 } in
  let fast = Harness.run base in
  let slow = Harness.run { base with post_work = 50_000 } in
  check_bool "uncontended tail lowers throughput" true
    (slow.Harness.throughput < fast.Harness.throughput)

let t_make_ops_all () =
  List.iter
    (fun s ->
      let ops = Harness.make_ops s in
      Alcotest.(check string) "named" (Harness.structure_name s) ops.Tcm_structures.Intset.name)
    [ Harness.List_s; Harness.Skiplist_s; Harness.Rbtree_s; Harness.Rbforest_s ]

(* ------------------------------------------------------------------ *)
(* Sim workload models                                                 *)
(* ------------------------------------------------------------------ *)

let models =
  [
    Sim_load.list_model; Sim_load.skiplist_model; Sim_load.rbtree_model; Sim_load.rbforest_model;
  ]

let t_models_generate_valid_txns () =
  List.iter
    (fun (m : Sim_load.model) ->
      let rng = Tcm_stm.Splitmix.create 3 in
      for _ = 1 to 200 do
        let txn = m.Sim_load.gen rng ~tail:2 in
        List.iter
          (fun a ->
            check_bool (m.Sim_load.name ^ " access in range") true
              (a.Tcm_sim.Spec.obj >= 0 && a.Tcm_sim.Spec.obj < m.Sim_load.n_objects);
            check_bool (m.Sim_load.name ^ " access before end") true
              (a.Tcm_sim.Spec.at < txn.Tcm_sim.Spec.dur))
          txn.Tcm_sim.Spec.accesses
      done)
    models

let t_model_names () =
  Alcotest.(check (list string)) "model names"
    [ "list"; "skiplist"; "rbtree"; "rbforest" ]
    (List.map (fun (m : Sim_load.model) -> m.Sim_load.name) models)

let t_model_of_structure () =
  Alcotest.(check string) "mapping" "rbtree"
    (Sim_load.model_of_structure Harness.Rbtree_s).Sim_load.name

let t_forest_long_txns_exist () =
  (* Over many draws, the forest model must emit both short and very
     long transactions — the paper's high-variance claim. *)
  let rng = Tcm_stm.Splitmix.create 5 in
  let durs =
    List.init 500 (fun _ ->
        (Sim_load.rbforest_model.Sim_load.gen rng ~tail:0).Tcm_sim.Spec.dur)
  in
  let short = List.exists (fun d -> d <= Sim_load.rb_dur) durs in
  let long = List.exists (fun d -> d >= 50 * Sim_load.rb_dur) durs in
  check_bool "short transactions occur" true short;
  check_bool "50-tree transactions occur" true long;
  check_bool "length variance is high" true
    (Stats.cv (List.map float_of_int durs) > 1.)

let t_sim_run_deterministic () =
  let run () =
    Sim_load.run ~horizon:800 ~seed:9 ~threads:4 ~manager:(module Tcm_core.Karma)
      Sim_load.rbtree_model
  in
  let a = run () and b = run () in
  check_int "same commits" a.Sim_load.commits b.Sim_load.commits;
  check_int "same aborts" a.Sim_load.aborts b.Sim_load.aborts

let t_sim_run_scales () =
  let thr n =
    (Sim_load.run ~horizon:800 ~threads:n ~manager:(module Tcm_core.Greedy)
       Sim_load.rbtree_model)
      .Sim_load.throughput
  in
  check_bool "more threads, more throughput (tree)" true (thr 8 > thr 1)

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let t_figure_ids () =
  Alcotest.(check (list string)) "ids" [ "fig1"; "fig2"; "fig3"; "fig4" ]
    (List.map (fun f -> f.Figures.id) Figures.all);
  check_bool "of_id hit" true (Figures.of_id "fig2" <> None);
  check_bool "of_id miss" true (Figures.of_id "fig9" = None)

let t_figure_sim_rows () =
  let r =
    Figures.run ~threads_list:[ 1; 2 ] ~mode:(Figures.Sim { horizon = 300 }) Figures.fig2
  in
  check_int "two rows" 2 (List.length r.Figures.rows);
  List.iter
    (fun row ->
      check_int "five managers" 5 (List.length row.Figures.cells);
      List.iter (fun (_, v) -> check_bool "non-negative" true (v >= 0.)) row.Figures.cells)
    r.Figures.rows;
  Alcotest.(check string) "unit label" "committed txns / 1000 ticks" r.Figures.unit_label

let t_figure_real_rows () =
  let r =
    Figures.run ~threads_list:[ 1 ] ~mode:(Figures.Real { duration_s = 0.03 }) Figures.fig1
  in
  check_int "one row" 1 (List.length r.Figures.rows);
  List.iter
    (fun row -> List.iter (fun (_, v) -> check_bool "positive" true (v > 0.)) row.Figures.cells)
    r.Figures.rows

let t_winners () =
  let r =
    Figures.run ~threads_list:[ 1; 4 ] ~mode:(Figures.Sim { horizon = 300 }) Figures.fig3
  in
  let ws = Report.winners r in
  check_int "one winner per row" 2 (List.length ws);
  List.iter (fun (_, name) -> check_bool "winner is a manager" true (String.length name > 0)) ws

let string_contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let t_report_prints () =
  let r =
    Figures.run ~threads_list:[ 1 ] ~mode:(Figures.Sim { horizon = 200 }) Figures.fig4
  in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.print_figure fmt r;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  check_bool "mentions the figure" true (string_contains out "fig4");
  check_bool "mentions greedy" true (string_contains out "greedy")

let t_float_to_string () =
  Alcotest.(check string) "large" "12346" (Report.float_to_string 12345.6);
  Alcotest.(check string) "medium" "123.5" (Report.float_to_string 123.45);
  Alcotest.(check string) "small" "1.23" (Report.float_to_string 1.234)

(* ------------------------------------------------------------------ *)
(* Bench dump schema validation                                        *)
(* ------------------------------------------------------------------ *)

(* The reader accepts the one schema it writes and refuses the older
   versions, naming the one it expects. *)
let t_bench_schema_accepts_only_current () =
  Alcotest.(check string) "writer emits /7" "tcm-bench/7" Report.bench_schema;
  let read v = Report.bench_schema_of (Report.Json.Obj [ ("schema", Report.Json.Str v) ]) in
  Alcotest.(check (result string string)) "accepts /7" (Ok "tcm-bench/7") (read "tcm-bench/7");
  List.iter
    (fun v ->
      match read v with
      | Ok _ -> Alcotest.failf "%s accepted" v
      | Error e ->
          check_bool (Printf.sprintf "%s: error %S names tcm-bench/7" v e) true
            (string_contains e "tcm-bench/7"))
    [ "tcm-bench/1"; "tcm-bench/2"; "tcm-bench/3"; "tcm-bench/4"; "tcm-bench/5"; "tcm-bench/6" ]

(* The committed trajectory (the repo's BENCH_*.json) stays readable:
   every dump carries the current schema, and figures of one kind have
   one key set across all dumps — sweep manager entries and service
   classes included — so no reader needs a default for a field an
   older run lacked. *)
let t_committed_dumps () =
  let module J = Report.Json in
  let dumps =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check_bool "the committed dumps are visible" true (List.length dumps >= 8);
  let shapes = Hashtbl.create 8 in
  let note file part j =
    let keys =
      match j with
      | J.Obj kvs -> List.sort compare (List.map fst kvs)
      | _ -> Alcotest.failf "%s: a %s entry is not an object" file part
    in
    match Hashtbl.find_opt shapes part with
    | None -> Hashtbl.add shapes part (file, keys)
    | Some (first, keys0) ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s %s keys as in %s" file part first)
          keys0 keys
  in
  List.iter
    (fun file ->
      let text = In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all in
      let j = J.of_string text in
      Alcotest.(check (result string string)) (file ^ " schema") (Ok Report.bench_schema)
        (Report.bench_schema_of j);
      note file "dump" j;
      List.iter
        (fun fig ->
          let kind = J.get_str "kind" fig in
          note file kind fig;
          match kind with
          | "sweep" ->
              List.iter
                (fun row -> List.iter (note file "sweep manager") (J.get_list "managers" row))
                (J.get_list "rows" fig)
          | "service" -> List.iter (note file "service class") (J.get_list "classes" fig)
          | _ -> ())
        (J.get_list "figures" j))
    dumps

let t_bench_schema_rejects () =
  let open Report.Json in
  let reject name j =
    match Report.bench_schema_of j with
    | Ok v -> Alcotest.failf "%s accepted as %s" name v
    | Error _ -> ()
  in
  reject "missing schema field" (Obj [ ("figures", Arr []) ]);
  reject "unknown version" (Obj [ ("schema", Str "tcm-bench/99") ]);
  reject "wrong family" (Obj [ ("schema", Str "tcm-trace/1") ]);
  reject "non-string schema" (Obj [ ("schema", Int 3) ])

(* A hand-built service summary, so the schema tests stay fast and
   deterministic (no engine run). *)
let fake_service_summary () : Tcm_service.Service.summary =
  let open Tcm_service.Service in
  let cls cls submitted completed dropped =
    {
      cls;
      submitted;
      completed;
      dropped;
      slo_us = 2_000.;
      slo_ok = completed;
      attainment = float_of_int completed /. float_of_int submitted;
      p50_us = 120.;
      p99_us = 900.;
      mean_us = 180.;
    }
  in
  {
    backend = "tl2";
    manager = "greedy";
    process = "poisson(1000/s)";
    classes =
      [
        cls Tcm_service.Sclass.Read 80 78 2;
        cls Tcm_service.Sclass.Scan 5 5 0;
        cls Tcm_service.Sclass.Rmw 15 15 0;
      ];
    submitted = 100;
    completed = 98;
    dropped = 2;
    aborts = 3;
    conflicts = 4;
    elapsed_s = 0.1;
    throughput = 980.;
    offered = 1_000.;
    queue_high_water = 7;
    queue_spills = 3;
    p50_us = 150.;
    p99_us = 950.;
    gen_minor_words_per_req = 0.5;
    trace_drops = 1;
    metrics_on = true;
    trace_on = false;
  }

(* The writer side: a real (tiny) detailed run serialized through
   [bench_json] must carry the current schema header, a backend and
   kind field on every figure entry, and service figures appended to
   the same array — and reparse as valid. *)
let t_bench_json_emits_current_schema () =
  let open Report.Json in
  let rows =
    Figures.run_real_detailed ~threads_list:[ 1 ] ~duration_s:0.02
      ~backend:Tcm_stm.Stm.Tl2_backend Figures.fig1
  in
  let fake_obs_row : Tcm_obs.Ledger.row =
    {
      backend = "tl2";
      manager = "greedy";
      runtime = "live";
      cls = "read";
      aborts = 4;
      wasted_work = 9;
      waits = 2;
      wait_cost = 120;
      wait_ticks = 7;
      commits = 40;
      useful_work = 80;
    }
  in
  let fake_hot = [ { Tcm_obs.Sketch.key = 17; count = 5; err = 1 } ] in
  let fake_consult_row : Consult_cost.row =
    {
      backend = "tl2";
      manager = "greedy";
      ns_per_resolve = 12.5;
      minor_words_per_resolve = 0.;
      minor_words = 0.;
    }
  in
  let fake_ladder_curve : Tcm_service.Ladder.curve =
    {
      backend = "tl2";
      manager = "greedy";
      rungs =
        [
          { Tcm_service.Ladder.offered_rps = 1_000.; summary = fake_service_summary () };
          { Tcm_service.Ladder.offered_rps = 4_000.; summary = fake_service_summary () };
        ];
      knee_rps = Some 4_000.;
    }
  in
  let doc =
    of_string
      (Report.bench_json ~mode:"real" ~duration_s:0.02 ~seed:42
         ~service_figures:[ fake_service_summary () ]
         ~obs_figures:[ (fake_obs_row, fake_hot) ]
         ~consult_figures:[ fake_consult_row ]
         ~ladder_figures:[ fake_ladder_curve ]
         [ (Figures.fig1, "tl2", rows) ])
  in
  (match Report.bench_schema_of doc with
  | Ok v -> Alcotest.(check string) "emitted schema validates" Report.bench_schema v
  | Error e -> Alcotest.failf "fresh dump rejected: %s" e);
  match member "figures" doc with
  | Some (Arr ((fig :: _) as figs)) ->
      check_bool "figure entry carries the backend" true
        (member "backend" fig = Some (Str "tl2"));
      check_bool "sweep entries carry kind=sweep" true
        (member "kind" fig = Some (Str "sweep"));
      let svc =
        List.filter (fun f -> member "kind" f = Some (Str "service")) figs
      in
      (match svc with
      | [ s ] ->
          check_bool "service figure carries the manager" true
            (member "manager" s = Some (Str "greedy"));
          (* tcm-bench/5: the observability self-description. *)
          check_bool "service figure carries trace_drops" true
            (member "trace_drops" s = Some (Int 1));
          check_bool "service figure carries metrics_enabled" true
            (member "metrics_enabled" s = Some (Bool true));
          check_bool "service figure carries trace_enabled" true
            (member "trace_enabled" s = Some (Bool false));
          (match member "classes" s with
          | Some (Arr (c :: _ as cs)) ->
              Alcotest.(check int) "one entry per class" 3 (List.length cs);
              List.iter
                (fun k ->
                  check_bool (k ^ " present on class entries") true
                    (member k c <> None))
                [ "class"; "slo_attainment"; "latency_p50_us"; "latency_p99_us" ]
          | _ -> Alcotest.fail "service figure has no classes array")
      | _ -> Alcotest.fail "expected exactly one kind=service figure");
      (* tcm-bench/5: kind=obs attribution entries. *)
      (match
         List.filter (fun f -> member "kind" f = Some (Str "obs")) figs
       with
      | [ o ] ->
          List.iter
            (fun (k, v) ->
              check_bool (k ^ " on obs entry") true (member k o = Some v))
            [
              ("backend", Str "tl2");
              ("manager", Str "greedy");
              ("runtime", Str "live");
              ("class", Str "read");
              ("aborts", Int 4);
              ("wasted_work", Int 9);
              ("wait_ticks", Int 7);
              ("price", Int 16);
            ];
          (match member "hot_keys" o with
          | Some (Arr [ h ]) ->
              check_bool "hot key round-trips" true
                (member "key" h = Some (Int 17) && member "count" h = Some (Int 5))
          | _ -> Alcotest.fail "obs entry has no hot_keys array")
      | _ -> Alcotest.fail "expected exactly one kind=obs figure");
      (* tcm-bench/6: kind=consult consult-cost entries. *)
      (match
         List.filter (fun f -> member "kind" f = Some (Str "consult")) figs
       with
      | [ c ] ->
          List.iter
            (fun (k, v) ->
              check_bool (k ^ " on consult entry") true (member k c = Some v))
            [
              ("backend", Str "tl2");
              ("manager", Str "greedy");
              ("ns_per_resolve", Float 12.5);
              (* A zero float prints as "0" (%.6g) and reparses as Int —
                 and zero is exactly what the allocation gate enforces. *)
              ("minor_words_per_resolve", Int 0);
            ]
      | _ -> Alcotest.fail "expected exactly one kind=consult figure");
      (* tcm-bench/7: kind=ladder saturation-sweep entries. *)
      (match
         List.filter (fun f -> member "kind" f = Some (Str "ladder")) figs
       with
      | [ l ] ->
          check_bool "ladder figure carries the backend" true
            (member "backend" l = Some (Str "tl2"));
          check_bool "ladder figure carries the knee" true
            (member "knee_rps" l = Some (Int 4_000));
          (match member "rungs" l with
          | Some (Arr (r :: _ as rs)) ->
              Alcotest.(check int) "one entry per rung" 2 (List.length rs);
              List.iter
                (fun k ->
                  check_bool (k ^ " present on rung entries") true
                    (member k r <> None))
                [
                  "offered_rps";
                  "attainment";
                  "submitted";
                  "completed";
                  "dropped";
                  "latency_p50_us";
                  "latency_p99_us";
                  "queue_spills";
                  "gen_minor_words_per_req";
                ]
          | _ -> Alcotest.fail "ladder figure has no rungs array")
      | _ -> Alcotest.fail "expected exactly one kind=ladder figure")
  | _ -> Alcotest.fail "dump has no figures array"

let () =
  Alcotest.run "workload"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick t_mean;
          Alcotest.test_case "stddev" `Quick t_stddev;
          Alcotest.test_case "percentiles" `Quick t_percentile;
          Alcotest.test_case "json emitter" `Quick t_json_emit;
          Alcotest.test_case "json parse roundtrip" `Quick t_json_parse_roundtrip;
          Alcotest.test_case "coefficient of variation" `Quick t_cv;
          Alcotest.test_case "histogram" `Quick t_histogram;
          Alcotest.test_case "histogram upper edge" `Quick t_histogram_upper_edge;
        ] );
      ( "harness",
        [
          Alcotest.test_case "structure names" `Quick t_structure_names;
          Alcotest.test_case "harness runs" `Quick t_harness_runs;
          Alcotest.test_case "post-work lowers throughput" `Quick t_harness_post_work_slows;
          Alcotest.test_case "minor words counted per domain" `Quick
            t_harness_minor_words_per_domain;
          Alcotest.test_case "ops for every structure" `Quick t_make_ops_all;
          Alcotest.test_case "minor words agree across runs" `Quick
            t_harness_minor_words_exact;
        ] );
      ( "sim-models",
        [
          Alcotest.test_case "models generate valid transactions" `Quick
            t_models_generate_valid_txns;
          Alcotest.test_case "model names" `Quick t_model_names;
          Alcotest.test_case "structure mapping" `Quick t_model_of_structure;
          Alcotest.test_case "forest length variance" `Quick t_forest_long_txns_exist;
          Alcotest.test_case "sim runs are deterministic" `Quick t_sim_run_deterministic;
          Alcotest.test_case "throughput scales with threads" `Quick t_sim_run_scales;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure ids" `Quick t_figure_ids;
          Alcotest.test_case "sim rows well-formed" `Quick t_figure_sim_rows;
          Alcotest.test_case "real rows well-formed" `Quick t_figure_real_rows;
          Alcotest.test_case "winners" `Quick t_winners;
          Alcotest.test_case "report prints" `Quick t_report_prints;
          Alcotest.test_case "float formatting" `Quick t_float_to_string;
        ] );
      ( "bench-schema",
        [
          Alcotest.test_case "accepts only the current version" `Quick
            t_bench_schema_accepts_only_current;
          Alcotest.test_case "rejects missing and unknown" `Quick t_bench_schema_rejects;
          Alcotest.test_case "writer emits current schema" `Quick
            t_bench_json_emits_current_schema;
          Alcotest.test_case "committed dumps readable" `Quick t_committed_dumps;
        ] );
    ]
