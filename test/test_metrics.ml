(** Tests for tcm.metrics: log2 bucketing, cross-domain shard merging,
    snapshot algebra, the disabled fast path, percentile accuracy
    against the exact sample percentile, and both exporters
    round-tripping. *)

module M = Tcm_metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every test runs against the one global registry; bracket with a
   clean slate so order does not matter. *)
let fresh () =
  M.disable ();
  M.reset ()

(* ------------------------------------------------------------------ *)
(* Buckets                                                             *)
(* ------------------------------------------------------------------ *)

let t_bucket_boundaries () =
  let b = 24 in
  check_int "0 -> bucket 0" 0 (M.Buckets.index ~buckets:b 0);
  check_int "1 -> bucket 0" 0 (M.Buckets.index ~buckets:b 1);
  check_int "negative -> bucket 0" 0 (M.Buckets.index ~buckets:b (-5));
  check_int "2 -> bucket 1" 1 (M.Buckets.index ~buckets:b 2);
  check_int "3 -> bucket 1" 1 (M.Buckets.index ~buckets:b 3);
  check_int "4 -> bucket 2" 2 (M.Buckets.index ~buckets:b 4);
  check_int "overflow clamps to last" (b - 1) (M.Buckets.index ~buckets:b max_int);
  (* Each bucket's bounds are tight: both edges map back to it, and the
     neighbours' edges do not. *)
  for i = 0 to b - 2 do
    check_int "lower edge" i (M.Buckets.index ~buckets:b (M.Buckets.lower_bound i));
    check_int "upper edge" i (M.Buckets.index ~buckets:b (M.Buckets.upper_bound ~buckets:b i));
    check_int "upper edge + 1 spills" (i + 1)
      (M.Buckets.index ~buckets:b (M.Buckets.upper_bound ~buckets:b i + 1))
  done;
  check_int "last bucket unbounded" max_int (M.Buckets.upper_bound ~buckets:b (b - 1))

let t_floor_log2 () =
  check_int "1" 0 (M.Buckets.floor_log2 1);
  check_int "2" 1 (M.Buckets.floor_log2 2);
  check_int "1023" 9 (M.Buckets.floor_log2 1023);
  check_int "1024" 10 (M.Buckets.floor_log2 1024);
  (* 63-bit native ints: max_int = 2^62 - 1. *)
  check_int "max_int" 61 (M.Buckets.floor_log2 max_int)

(* ------------------------------------------------------------------ *)
(* Percentiles: estimate vs exact                                      *)
(* ------------------------------------------------------------------ *)

let t_percentile_vs_exact () =
  (* Log2 buckets promise a within-2x estimate; check against the exact
     nearest-rank percentile of a Tcm_dist.Stats.Sample on a spread
     deterministic sample. *)
  let rng = Tcm_stm.Splitmix.create 11 in
  let samples = List.init 500 (fun _ -> 1 + Tcm_stm.Splitmix.int rng 10_000) in
  let counts = Array.make 24 0 in
  List.iter
    (fun v ->
      let i = M.Buckets.index ~buckets:24 v in
      counts.(i) <- counts.(i) + 1)
    samples;
  List.iter
    (fun p ->
      let exact =
        Tcm_dist.Stats.Sample.(percentile (of_list (List.map float_of_int samples)) p)
      in
      let est = M.Buckets.percentile ~counts p in
      check_bool
        (Printf.sprintf "p%.0f within 2x (exact %.0f, est %.0f)" p exact est)
        true
        (est >= exact /. 2. && est <= exact *. 2.))
    [ 50.; 90.; 99. ];
  check_bool "empty is nan" true (Float.is_nan (M.Buckets.percentile ~counts:(Array.make 8 0) 50.))

(* ------------------------------------------------------------------ *)
(* Core: sharded recording                                             *)
(* ------------------------------------------------------------------ *)

let t_counter_across_domains () =
  fresh ();
  M.enable ();
  let c = M.Counter.create ~labels:[ ("who", "spawned") ] "test_domains_total" in
  let per_domain = 1000 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              M.Counter.incr c
            done))
  in
  List.iter Domain.join doms;
  M.Counter.add c 5;
  M.disable ();
  let s = M.snapshot () in
  check_int "shards merge to the global total" ((4 * per_domain) + 5)
    (M.Snapshot.counter_value s ~name:"test_domains_total" ~labels:[ ("who", "spawned") ])

let t_histogram_across_domains () =
  fresh ();
  M.enable ();
  let h = M.Histogram.create "test_hist_domains" in
  let doms =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              M.Histogram.observe h (i + (d * 100))
            done))
  in
  List.iter Domain.join doms;
  M.disable ();
  let s = M.snapshot () in
  match M.Snapshot.hist_value s ~name:"test_hist_domains" ~labels:[] with
  | None -> Alcotest.fail "histogram series missing"
  | Some hv ->
      check_int "all samples counted" 200 (M.Snapshot.hist_count hv);
      check_int "sum is exact" (List.fold_left ( + ) 0 (List.init 200 (fun i -> i + 1)))
        hv.M.Snapshot.sum

let t_disabled_records_nothing () =
  fresh ();
  let c = M.Counter.create "test_disabled_total" in
  let h = M.Histogram.create "test_disabled_hist" in
  M.Counter.incr c;
  M.Counter.add c 100;
  M.Histogram.observe h 42;
  let s = M.snapshot () in
  check_int "counter untouched" 0
    (M.Snapshot.counter_value s ~name:"test_disabled_total" ~labels:[]);
  (match M.Snapshot.hist_value s ~name:"test_disabled_hist" ~labels:[] with
  | None -> Alcotest.fail "histogram series missing"
  | Some hv -> check_int "histogram untouched" 0 (M.Snapshot.hist_count hv));
  (* Re-creating the same series yields the same storage, not a clash. *)
  let c2 = M.Counter.create "test_disabled_total" in
  M.enable ();
  M.Counter.incr c;
  M.Counter.incr c2;
  M.disable ();
  let s = M.snapshot () in
  check_int "dedup shares storage" 2
    (M.Snapshot.counter_value s ~name:"test_disabled_total" ~labels:[])

let t_kind_clash_rejected () =
  fresh ();
  ignore (M.Counter.create "test_kind_clash");
  check_bool "histogram over counter raises" true
    (try
       ignore (M.Histogram.create "test_kind_clash");
       false
     with Invalid_argument _ -> true)

(* One domain snapshots in a loop while others spawn, register new
   series (so their slots grow mid-life), count and exit: every event
   is in a live slot or in the retired total, never both, so no
   snapshot may report a total below an earlier one — and the final
   one is exact, with every slot handed back. *)
let t_snapshot_monotone () =
  fresh ();
  M.enable ();
  let name = "test_plane_monotone_total" in
  let c = M.Counter.create name in
  let slots0 = M.Plane.live_slots () in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let last = ref 0 and backwards = ref 0 in
        while not (Atomic.get stop) do
          let v = M.Snapshot.counter_value (M.snapshot ()) ~name ~labels:[] in
          if v < !last then incr backwards;
          last := v
        done;
        !backwards)
  in
  let rounds = 25 and per_round = 3 in
  for round = 1 to rounds do
    List.iter Domain.join
      (List.init per_round (fun d ->
           Domain.spawn (fun () ->
               for _ = 1 to 100 do
                 M.Counter.incr c
               done;
               let g =
                 M.Counter.create "test_plane_grow_total"
                   ~labels:[ ("round", string_of_int round); ("d", string_of_int d) ]
               in
               M.Counter.incr g;
               for _ = 1 to 100 do
                 M.Counter.incr c
               done)))
  done;
  Atomic.set stop true;
  check_int "no snapshot went backwards" 0 (Domain.join reader);
  M.disable ();
  check_int "retired counts are exact" (rounds * per_round * 200)
    (M.Snapshot.counter_value (M.snapshot ()) ~name ~labels:[]);
  check_int "every slot handed back" slots0 (M.Plane.live_slots ())

(* A domain's slot grows geometrically as series register after it:
   256 counters registered one at a time, each recorded at once, grow
   the slot (parking the outgrown one for reuse) at most 9 times —
   once per power of two the registry's size crosses — not 256. *)
let t_slot_growth_geometric () =
  fresh ();
  M.enable ();
  let grows =
    Domain.join
      (Domain.spawn (fun () ->
           M.Counter.incr (M.Counter.create "test_plane_geometric_base");
           let grows = ref 0 and parked = ref (M.Plane.free_words ()) in
           for i = 1 to 256 do
             M.Counter.incr
               (M.Counter.create "test_plane_geometric"
                  ~labels:[ ("i", string_of_int i) ]);
             let p = M.Plane.free_words () in
             if p <> !parked then incr grows;
             parked := p
           done;
           !grows))
  in
  M.disable ();
  check_bool (Printf.sprintf "grew %d times" grows) true (grows >= 1 && grows <= 9)

(* ------------------------------------------------------------------ *)
(* Snapshot algebra                                                    *)
(* ------------------------------------------------------------------ *)

let synth time entries = { M.Snapshot.time; entries }

let centry ?(labels = []) name v =
  { M.Snapshot.name; labels = M.Snapshot.canon_labels labels; help = ""; value = M.Snapshot.Counter v }

let hentry ?(labels = []) name counts sum =
  {
    M.Snapshot.name;
    labels = M.Snapshot.canon_labels labels;
    help = "";
    value = M.Snapshot.Histogram { M.Snapshot.counts; sum };
  }

let t_merge_associative () =
  let a = synth 1. [ centry "x" 1; hentry "h" [| 1; 0 |] 1 ] in
  let b = synth 2. [ centry "x" 2; centry ~labels:[ ("k", "v") ] "x" 7 ] in
  let c = synth 3. [ hentry "h" [| 0; 3 |] 12; centry "y" 5 ] in
  let l = M.Snapshot.merge (M.Snapshot.merge a b) c in
  let r = M.Snapshot.merge a (M.Snapshot.merge b c) in
  let v s name labels = M.Snapshot.counter_value s ~name ~labels in
  List.iter
    (fun (name, labels, want) ->
      check_int (name ^ " left-assoc") want (v l name labels);
      check_int (name ^ " right-assoc") want (v r name labels))
    [ ("x", [], 3); ("x", [ ("k", "v") ], 7); ("y", [], 5) ];
  let hl = Option.get (M.Snapshot.hist_value l ~name:"h" ~labels:[]) in
  let hr = Option.get (M.Snapshot.hist_value r ~name:"h" ~labels:[]) in
  check_int "hist counts assoc" (M.Snapshot.hist_count hl) (M.Snapshot.hist_count hr);
  check_int "hist total" 4 (M.Snapshot.hist_count hl);
  check_int "hist sum" 13 hl.M.Snapshot.sum;
  check_bool "kind clash raises" true
    (try
       ignore (M.Snapshot.merge (synth 0. [ centry "z" 1 ]) (synth 0. [ hentry "z" [| 1 |] 1 ]));
       false
     with Invalid_argument _ -> true)

let t_diff_clamps () =
  let earlier = synth 1. [ centry "x" 10 ] in
  let later = synth 2. [ centry "x" 4; centry "y" 3 ] in
  let d = M.Snapshot.diff ~earlier ~later in
  check_int "regressions clamp to 0" 0 (M.Snapshot.counter_value d ~name:"x" ~labels:[]);
  check_int "new series pass through" 3 (M.Snapshot.counter_value d ~name:"y" ~labels:[])

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "tcm_metrics_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let populated () =
  fresh ();
  M.enable ();
  let mx = M.Conventions.for_manager ~runtime:"live" "testmgr" in
  M.Conventions.attempt_begin mx;
  M.Conventions.resolve mx M.Conventions.v_block;
  M.Conventions.wait mx ~duration:37;
  M.Conventions.attempt_commit mx ~duration:120 ~read_set:9;
  M.Conventions.attempt_begin mx;
  M.Conventions.attempt_abort mx ~duration:4000;
  M.Conventions.pool_event mx M.Conventions.p_hit;
  M.Conventions.pool_event mx M.Conventions.p_hit;
  M.Conventions.pool_event mx M.Conventions.p_hit;
  M.Conventions.pool_event mx M.Conventions.p_miss;
  M.Conventions.pool_event mx M.Conventions.p_recycled;
  M.Conventions.pool_event mx 99 (* out of range: dropped *);
  M.disable ();
  M.snapshot ()

let t_jsonl_roundtrip () =
  let s = populated () in
  with_tmp (fun path ->
      M.Export.write_jsonl path s;
      let s', windows = M.Export.read_jsonl path in
      check_int "no windows written, none read" 0 (List.length windows);
      check_int "entry count survives" (List.length s.M.Snapshot.entries)
        (List.length s'.M.Snapshot.entries);
      (* [for_manager] stamps the backend label (default "locator"). *)
      let labels = [ ("backend", "locator"); ("manager", "testmgr"); ("runtime", "live") ] in
      check_int "counter survives" 2
        (M.Snapshot.counter_value s' ~name:M.Conventions.n_attempts ~labels);
      let h = Option.get (M.Snapshot.hist_value s' ~name:M.Conventions.n_wait ~labels) in
      check_int "hist count survives" 1 (M.Snapshot.hist_count h);
      check_int "hist sum survives" 37 h.M.Snapshot.sum)

let t_prometheus_roundtrip () =
  let s = populated () in
  let text = M.Export.to_prometheus s in
  let samples = M.Export.parse_prometheus text in
  let labels =
    M.Snapshot.canon_labels
      [ ("backend", "locator"); ("manager", "testmgr"); ("runtime", "live") ]
  in
  let value name extra =
    match
      (* The parser keeps emission order; compare canonicalized. *)
      List.find_opt
        (fun (p : M.Export.prom_sample) ->
          p.s_name = name
          && M.Snapshot.canon_labels p.s_labels = M.Snapshot.canon_labels (extra @ labels))
        samples
    with
    | Some p -> p.s_value
    | None -> Alcotest.fail (Printf.sprintf "sample %s missing" name)
  in
  Alcotest.(check (float 1e-9)) "attempts" 2. (value M.Conventions.n_attempts []);
  Alcotest.(check (float 1e-9)) "commits" 1. (value M.Conventions.n_commits []);
  Alcotest.(check (float 1e-9))
    "resolve verdict carried" 1.
    (value M.Conventions.n_resolve [ ("verdict", "block") ]);
  Alcotest.(check (float 1e-9))
    "pool hits carried" 3.
    (value M.Conventions.n_pool [ ("event", "hit") ]);
  Alcotest.(check (float 1e-9))
    "pool misses carried" 1.
    (value M.Conventions.n_pool [ ("event", "miss") ]);
  Alcotest.(check (float 1e-9))
    "pool recycles carried" 1.
    (value M.Conventions.n_pool [ ("event", "recycled") ]);
  (* Histogram exposition: _count and _sum lines, plus a cumulative
     +Inf bucket equal to _count. *)
  Alcotest.(check (float 1e-9)) "wait count" 1. (value (M.Conventions.n_wait ^ "_count") []);
  Alcotest.(check (float 1e-9)) "wait sum" 37. (value (M.Conventions.n_wait ^ "_sum") []);
  Alcotest.(check (float 1e-9))
    "wait +Inf bucket" 1.
    (value (M.Conventions.n_wait ^ "_bucket") [ ("le", "+Inf") ]);
  check_bool "samples parsed" true (List.length samples > 10)

(* ------------------------------------------------------------------ *)
(* Conventions + health plumbing                                       *)
(* ------------------------------------------------------------------ *)

let t_health_rows () =
  let s = populated () in
  match M.Health.rows s with
  | [ r ] ->
      Alcotest.(check string) "manager" "testmgr" r.M.Health.manager;
      Alcotest.(check string) "runtime" "live" r.M.Health.runtime;
      check_int "attempts" 2 r.M.Health.attempts;
      check_int "commits" 1 r.M.Health.commits;
      check_int "aborts" 1 r.M.Health.aborts;
      Alcotest.(check (float 1e-9)) "ab/cm" 1. r.M.Health.abort_commit_ratio;
      Alcotest.(check (float 1e-9)) "wasted" 0.5 r.M.Health.wasted_frac;
      check_int "verdict mix" 1 (List.assoc "block" r.M.Health.verdicts);
      check_int "other verdicts zero" 0 (List.assoc "abort_self" r.M.Health.verdicts);
      check_bool "wait p50 sane" true (r.M.Health.wait_p50 >= 32. && r.M.Health.wait_p50 <= 64.);
      (* 3 hits / (3 hits + 1 miss); the out-of-range event was dropped. *)
      Alcotest.(check (float 1e-9)) "pool efficiency" 0.75 r.M.Health.pool_eff
  | rows -> Alcotest.fail (Printf.sprintf "expected one row, got %d" (List.length rows))

(* A series that never takes a locator (e.g. the simulator) has no
   pool hit rate, not a zero one. *)
let t_health_pool_idle () =
  fresh ();
  M.enable ();
  let mx = M.Conventions.for_manager ~runtime:"sim" "simmgr" in
  M.Conventions.attempt_begin mx;
  M.Conventions.attempt_commit mx ~duration:3 ~read_set:1;
  M.disable ();
  match M.Health.rows (M.snapshot ()) with
  | [ r ] -> check_bool "pool_eff is nan" true (Float.is_nan r.M.Health.pool_eff)
  | rows -> Alcotest.fail (Printf.sprintf "expected one row, got %d" (List.length rows))

(* The same manager under both runtime backends lands in distinct
   series and distinct health rows — the locator-vs-TL2 split the
   backend label exists for. *)
let t_health_backend_split () =
  fresh ();
  M.enable ();
  let loc = M.Conventions.for_manager ~runtime:"live" "duelmgr" in
  let tl2 = M.Conventions.for_manager ~backend:"tl2" ~runtime:"live" "duelmgr" in
  M.Conventions.attempt_begin loc;
  M.Conventions.attempt_commit loc ~duration:10 ~read_set:1;
  M.Conventions.attempt_begin tl2;
  M.Conventions.attempt_begin tl2;
  M.Conventions.attempt_commit tl2 ~duration:20 ~read_set:2;
  M.Conventions.attempt_abort tl2 ~duration:30;
  M.disable ();
  match M.Health.rows (M.snapshot ()) with
  | [ a; b ] ->
      let find backend =
        if a.M.Health.backend = backend then a
        else if b.M.Health.backend = backend then b
        else Alcotest.fail (Printf.sprintf "no %s row" backend)
      in
      let rl = find "locator" and rt = find "tl2" in
      check_int "locator attempts" 1 rl.M.Health.attempts;
      check_int "tl2 attempts" 2 rt.M.Health.attempts;
      check_int "tl2 aborts" 1 rt.M.Health.aborts;
      Alcotest.(check string) "same manager" rl.M.Health.manager rt.M.Health.manager
  | rows -> Alcotest.fail (Printf.sprintf "expected two rows, got %d" (List.length rows))

let t_sampler_windows () =
  fresh ();
  M.enable ();
  let c = M.Counter.create "test_sampled_total" in
  let sampler = M.Sampler.create ~period_s:0.0 () in
  M.Sampler.force sampler;
  M.Counter.add c 10;
  M.Sampler.force sampler;
  M.Counter.add c 32;
  M.Sampler.force sampler;
  M.disable ();
  let deltas =
    List.map
      (fun (_, _, d) -> d)
      (M.Sampler.series sampler ~name:"test_sampled_total" ~labels:[])
  in
  Alcotest.(check (list int)) "per-window deltas" [ 10; 32 ] deltas

let () =
  Alcotest.run "metrics"
    [
      ( "buckets",
        [
          Alcotest.test_case "bucket boundaries" `Quick t_bucket_boundaries;
          Alcotest.test_case "floor_log2" `Quick t_floor_log2;
          Alcotest.test_case "percentile vs exact" `Quick t_percentile_vs_exact;
        ] );
      ( "core",
        [
          Alcotest.test_case "counter across domains" `Quick t_counter_across_domains;
          Alcotest.test_case "histogram across domains" `Quick t_histogram_across_domains;
          Alcotest.test_case "disabled records nothing" `Quick t_disabled_records_nothing;
          Alcotest.test_case "kind clash rejected" `Quick t_kind_clash_rejected;
          Alcotest.test_case "snapshots monotone across domain exits" `Quick
            t_snapshot_monotone;
          Alcotest.test_case "slot growth is geometric" `Quick t_slot_growth_geometric;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "merge associative" `Quick t_merge_associative;
          Alcotest.test_case "diff clamps" `Quick t_diff_clamps;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick t_jsonl_roundtrip;
          Alcotest.test_case "prometheus roundtrip" `Quick t_prometheus_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "health rows" `Quick t_health_rows;
          Alcotest.test_case "health pool idle" `Quick t_health_pool_idle;
          Alcotest.test_case "health backend split" `Quick t_health_backend_split;
          Alcotest.test_case "sampler windows" `Quick t_sampler_windows;
        ] );
    ]
