(* tcm.service: deterministic unit tests for the admission queue and
   the per-class SLO accounting, store semantics on both backends, and
   a small end-to-end engine run whose bookkeeping invariants
   (submitted = completed + dropped, attainment in [0,1]) must hold
   exactly. *)

module Service = Tcm_service.Service
module Sclass = Tcm_service.Sclass
module Squeue = Tcm_service.Squeue
module Store = Tcm_service.Store
module Stm = Tcm_stm.Stm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Admission queue                                                     *)
(* ------------------------------------------------------------------ *)

let t_squeue_fifo () =
  let q = Squeue.create 4 in
  List.iter (fun x -> check_bool "push" true (Squeue.try_push q x)) [ 1; 2; 3 ];
  check_int "length" 3 (Squeue.length q);
  Squeue.close q;
  Alcotest.(check (list int)) "drains in order" [ 1; 2; 3 ]
    (List.map (fun _ -> Squeue.pop q ~shard:0) [ (); (); () ]);
  check_int "closed and drained" (-1) (Squeue.pop q ~shard:0)

let t_squeue_overflow_counts () =
  let q = Squeue.create 2 in
  check_bool "fits" true (Squeue.try_push q 1);
  check_bool "fits" true (Squeue.try_push q 2);
  check_bool "full sheds" false (Squeue.try_push q 3);
  check_bool "full sheds again" false (Squeue.try_push q 4);
  check_int "dropped counted" 2 (Squeue.dropped q);
  check_int "high water" 2 (Squeue.high_water q);
  check_int "pop makes room" 1 (Squeue.pop q ~shard:0);
  check_bool "room again" true (Squeue.try_push q 5);
  check_int "drops don't reset" 2 (Squeue.dropped q)

let t_squeue_closed_rejects () =
  let q = Squeue.create 2 in
  check_bool "pre-close admits" true (Squeue.try_push q 1);
  Squeue.close q;
  check_bool "post-close sheds" false (Squeue.try_push q 2);
  check_int "queued item drains" 1 (Squeue.pop q ~shard:0);
  check_int "then the sentinel" (-1) (Squeue.pop q ~shard:0);
  check_int "post-close shed counted" 1 (Squeue.dropped q)

(* Round-robin dispatch, and the spill rule: a push whose round-robin
   target is full lands on the least-loaded shard instead of
   shedding. *)
let t_squeue_least_loaded_spill () =
  let q = Squeue.create ~shards:2 4 in
  check_int "two shards" 2 (Squeue.shards q);
  check_int "per-shard capacity" 2 (Squeue.shard_capacity q 0);
  List.iter
    (fun x -> check_bool "push" true (Squeue.try_push q x))
    [ 10; 11; 12; 13 ];
  check_int "round-robin filled shard 0" 2 (Squeue.shard_pushed q 0);
  check_int "round-robin filled shard 1" 2 (Squeue.shard_pushed q 1);
  check_bool "no spill while targets had room" false (Squeue.last_spilled q);
  (* Drain one slot of shard 1; the next push's round-robin target is
     the (still full) shard 0, so it must spill onto shard 1. *)
  check_int "consumer drains shard 1" 11 (Squeue.pop q ~shard:1);
  check_bool "spilled push admitted" true (Squeue.try_push q 14);
  check_bool "marked as a spill" true (Squeue.last_spilled q);
  check_int "landed on the least-loaded shard" 1 (Squeue.last_shard q);
  check_int "charged to shard 1's pushed" 3 (Squeue.shard_pushed q 1);
  check_int "nothing shed" 0 (Squeue.dropped q);
  check_int "totals add up" 5 (Squeue.pushed q)

(* Sheds are charged to the round-robin target shard, and per-shard
   drop counters sum to the queue total. *)
let t_squeue_per_shard_shed () =
  let q = Squeue.create ~shards:2 4 in
  for x = 0 to 3 do
    check_bool "fill" true (Squeue.try_push q x)
  done;
  check_bool "all full: shed" false (Squeue.try_push q 4);
  check_int "charged to the rr target (shard 0)" 0 (Squeue.last_shard q);
  check_bool "a shed is not a spill" false (Squeue.last_spilled q);
  check_bool "all full: shed again" false (Squeue.try_push q 5);
  check_int "next shed charged to shard 1" 1 (Squeue.last_shard q);
  check_int "shard 0 shed" 1 (Squeue.shard_dropped q 0);
  check_int "shard 1 shed" 1 (Squeue.shard_dropped q 1);
  check_int "per-shard sheds sum to the total" (Squeue.dropped q)
    (Squeue.shard_dropped q 0 + Squeue.shard_dropped q 1);
  check_int "conservation: submitted = pushed + dropped" 6
    (Squeue.pushed q + Squeue.dropped q)

(* Multi-domain hammer: one producer, one consumer domain per shard,
   relaxed stat reads racing the traffic.  After close + join the
   conservation identities must hold exactly: every successfully
   pushed payload is popped exactly once, and
   submitted = pushed + dropped. *)
let t_squeue_conservation_hammer () =
  let shards = 3 in
  let n = 20_000 in
  let q = Squeue.create ~shards 48 in
  let consumers =
    Array.init shards (fun shard ->
        Domain.spawn (fun () ->
            let count = ref 0 and sum = ref 0 in
            let rec go () =
              let x = Squeue.pop q ~shard in
              if x >= 0 then begin
                incr count;
                sum := !sum + x;
                go ()
              end
            in
            go ();
            (!count, !sum)))
  in
  let pushed_ok = ref 0 and pushed_sum = ref 0 in
  for x = 1 to n do
    if Squeue.try_push q x then begin
      incr pushed_ok;
      pushed_sum := !pushed_sum + x
    end;
    (* Exercise the relaxed stat reads against live traffic. *)
    if x land 1023 = 0 then begin
      ignore (Squeue.length q);
      ignore (Squeue.pushed q);
      ignore (Squeue.dropped q);
      ignore (Squeue.high_water q)
    end;
    if x land 255 = 0 then Domain.cpu_relax ()
  done;
  Squeue.close q;
  let results = Array.map Domain.join consumers in
  let popped = Array.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let popped_sum = Array.fold_left (fun acc (_, s) -> acc + s) 0 results in
  check_int "every admitted request popped exactly once" !pushed_ok popped;
  check_int "payloads conserved" !pushed_sum popped_sum;
  check_int "pushed counter exact after join" !pushed_ok (Squeue.pushed q);
  check_int "submitted = pushed + dropped" n
    (Squeue.pushed q + Squeue.dropped q);
  check_int "per-shard pushed sums to the total" (Squeue.pushed q)
    (List.fold_left
       (fun acc i -> acc + Squeue.shard_pushed q i)
       0
       (List.init shards Fun.id));
  (* The sharded queue must agree with the single-mutex reference on
     the sequential contract. *)
  let r = Squeue.Single_mutex.create 2 in
  check_bool "ref fits" true (Squeue.Single_mutex.try_push r 1);
  check_bool "ref fits" true (Squeue.Single_mutex.try_push r 2);
  check_bool "ref sheds" false (Squeue.Single_mutex.try_push r 3);
  check_int "ref dropped" 1 (Squeue.Single_mutex.dropped r);
  Squeue.Single_mutex.close r;
  check_bool "ref drains" true (Squeue.Single_mutex.pop r = Some 1)

(* ------------------------------------------------------------------ *)
(* SLO accounting                                                      *)
(* ------------------------------------------------------------------ *)

(* Deterministic accounting check with hand-computable numbers: 4 read
   submissions (one dropped, one over-SLO), 1 scan, 1 rmw. *)
let t_agg_slo_accounting () =
  let slo_us = [| 1_000.; 10_000.; 2_000. |] in
  let capacity = Array.make Sclass.count 0 in
  let a = Service.Agg.create ~slo_us ~capacity in
  let submit_complete cls lat =
    Service.Agg.submit a cls;
    Service.Agg.complete a cls ~latency_us:lat
  in
  submit_complete Sclass.Read 100.;
  submit_complete Sclass.Read 999.;
  submit_complete Sclass.Read 5_000.;
  (* over SLO *)
  Service.Agg.submit a Sclass.Read;
  Service.Agg.drop a Sclass.Read;
  (* shed: counts against attainment *)
  submit_complete Sclass.Scan 9_000.;
  submit_complete Sclass.Rmw 2_000.;
  (* boundary: <= is within *)
  let stats = Service.Agg.class_stats a in
  let find cls =
    List.find (fun (c : Service.class_stats) -> c.cls = cls) stats
  in
  let r = find Sclass.Read in
  check_int "read submitted" 4 r.submitted;
  check_int "read completed" 3 r.completed;
  check_int "read dropped" 1 r.dropped;
  check_int "read slo_ok" 2 r.slo_ok;
  Alcotest.(check (float 1e-9)) "read attainment (drop and miss charged)" 0.5
    r.attainment;
  let s = find Sclass.Scan in
  Alcotest.(check (float 1e-9)) "scan attainment" 1.0 s.attainment;
  let m = find Sclass.Rmw in
  check_int "rmw boundary within SLO" 1 m.slo_ok;
  (* Merge: a second (worker) accumulator folds in exactly. *)
  let b = Service.Agg.create ~slo_us ~capacity in
  Service.Agg.submit b Sclass.Read;
  Service.Agg.complete b Sclass.Read ~latency_us:50.;
  Service.Agg.merge_into ~into:a b;
  let r' =
    List.find
      (fun (c : Service.class_stats) -> c.cls = Sclass.Read)
      (Service.Agg.class_stats a)
  in
  check_int "merged submitted" 5 r'.submitted;
  check_int "merged slo_ok" 3 r'.slo_ok

(* A completion stores one float into a sample sized up front: counted
   exactly (Gc.minor_words reads the allocation pointer), recording
   100,000 of them allocates no word. *)
let t_agg_complete_allocates_nothing () =
  let n = 100_000 in
  let a =
    Service.Agg.create ~slo_us:Sclass.default_slos ~capacity:(Array.make Sclass.count n)
  in
  let lat = 250. in
  let m0 = Gc.minor_words () in
  for i = 1 to n do
    Service.Agg.complete a Sclass.all.(i mod Sclass.count) ~latency_us:lat
  done;
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.)) "minor words for 100000 completions" 0. words;
  check_int "every completion recorded" n
    (List.fold_left (fun acc (c : Service.class_stats) -> acc + c.completed) 0
       (Service.Agg.class_stats a))

(* The service draws a class for every request of its schedule. *)
let t_class_pick_allocates_nothing () =
  let n = 1_000_000 in
  let rng = Tcm_stm.Splitmix.create 9 in
  let reads = ref 0 in
  let m0 = Gc.minor_words () in
  for _ = 1 to n do
    if Sclass.pick Sclass.default_mix rng = Sclass.Read then incr reads
  done;
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.)) "minor words for 1000000 class picks" 0. words;
  check_bool "about 80% reads" true (abs (!reads - (n * 4 / 5)) < n / 100)

(* [Sclass.pick] is [Samplers.pick_weighted] over the mix's weights,
   unrolled: same stream, same classes, zero weights included. *)
let prop_pick_is_pick_weighted =
  let weight = QCheck.(oneof [ always 0.; float_range 0. 1.; float_range 0. 1e-300 ]) in
  QCheck.Test.make ~name:"Sclass.pick = Samplers.pick_weighted" ~count:500
    QCheck.(pair (triple weight weight weight) small_nat)
    (fun ((read_w, scan_w, rmw_w), seed) ->
      let mix = { Sclass.read_w; scan_w; rmw_w } in
      let a = Tcm_stm.Splitmix.create seed and b = Tcm_stm.Splitmix.create seed in
      match Tcm_dist.Samplers.pick_weighted b ~weights:(Sclass.weights mix) with
      | exception Invalid_argument _ ->
          (try ignore (Sclass.pick mix a); false with Invalid_argument _ -> true)
      | first ->
          Sclass.index (Sclass.pick mix a) = first
          && List.for_all
               (fun _ ->
                 Sclass.index (Sclass.pick mix a)
                 = Tcm_dist.Samplers.pick_weighted b ~weights:(Sclass.weights mix))
               (List.init 200 Fun.id))

(* Queue time is part of the latency: a request that waited is charged
   from its scheduled arrival, not from dequeue. *)
let t_latency_includes_queue_time () =
  let lat = Service.request_latency_us ~arrival_s:1.0 ~now_s:1.25 in
  Alcotest.(check (float 1e-6)) "250ms arrival-to-commit" 250_000. lat;
  (* A worker that starts the txn 200ms late cannot report only its
     100ms of service time. *)
  check_bool "queue wait dominates" true (lat > 100_000.);
  Alcotest.(check (float 1e-9)) "clamped at 0" 0.
    (Service.request_latency_us ~arrival_s:2.0 ~now_s:1.9)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let store_ops backend () =
  let rt = Stm.create ~backend (module Tcm_core.Greedy : Tcm_stm.Cm_intf.S) in
  let st = Store.create ~n_keys:128 () in
  Store.prefill rt st;
  check_int "n_keys" 128 (Store.n_keys st);
  let got = Stm.atomically rt (fun tx -> Store.get tx st 7) in
  check_bool "prefilled value = key" true (got = Some 7);
  Stm.atomically rt (fun tx -> Store.put tx st 7 700);
  check_bool "put visible" true
    (Stm.atomically rt (fun tx -> Store.get tx st 7) = Some 700);
  Stm.atomically rt (fun tx ->
      Store.rmw tx st 9 (function None -> Some 1 | Some v -> Some (v + 1)));
  check_bool "rmw incremented" true
    (Stm.atomically rt (fun tx -> Store.get tx st 9) = Some 10);
  (* Ordered scan over [5, ...): 5+6+..+9 with the updates above. *)
  let n, sum = Stm.atomically rt (fun tx -> Store.scan tx st ~lo:5 ~len:5) in
  check_int "scan reads len bindings" 5 n;
  check_int "scan sums updated values" (700 + 5 + 6 + 8 + 10) sum;
  (* Scan beyond the keyspace tail returns what exists. *)
  let n, _ = Stm.atomically rt (fun tx -> Store.scan tx st ~lo:126 ~len:10) in
  check_int "tail scan truncates" 2 n

(* Every observable store result, hashed: [get] of every key in and
   around [0, n_keys), then [scan]'s (n, sum) over a grid of (lo, len)
   at the edges of the keyspace and of [int], after a seeded mix of
   increments, deletes and puts.  The mix draws keys in
   [-n/4, n + n/4) and skips each op whose key falls outside the
   keyspace, where [put] and [rmw] raise.  The digest was computed on
   the bucketed association-list store, where both builds on both
   backends agreed; they must keep producing it. *)
let store_pin_keys = 300

let store_pin_digest = "0272cc05879319ab97b14aa39c39fc72"

let store_digest rt build =
  let n = store_pin_keys in
  let st = Store.create ~n_keys:n () in
  build st;
  let rng = Tcm_stm.Splitmix.create 23 in
  for _ = 1 to 2_000 do
    let op = Tcm_stm.Splitmix.int rng 3 in
    let k = Tcm_stm.Splitmix.int rng (n + (n / 2)) - (n / 4) in
    let v = Tcm_stm.Splitmix.int rng 1_000_000 in
    if k >= 0 && k < n then
      Stm.atomically rt (fun tx ->
          match op with
          | 0 -> Store.rmw tx st k (function Some x -> Some (x + 1) | None -> Some 1)
          | 1 -> Store.rmw tx st k (fun _ -> None)
          | _ -> Store.put tx st k v)
  done;
  let b = Buffer.create 16_384 in
  let add x = Buffer.add_int64_le b (Int64.of_int x) in
  for k = -(n / 4) to n + (n / 4) do
    match Stm.atomically rt (fun tx -> Store.get tx st k) with
    | Some v -> add k; add v
    | None -> add k; add min_int
  done;
  List.iter
    (fun lo ->
      List.iter
        (fun len ->
          let c, sum = Stm.atomically rt (fun tx -> Store.scan tx st ~lo ~len) in
          add lo; add len; add c; add sum)
        [ min_int; -7; -1; 0; 1; 5; 32; n - 1; n; n + 1; max_int ])
    [ min_int; -40; -1; 0; 1; 17; n / 2; n - 33; n - 1; n; n + 9; max_int ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let t_store_pinned backend () =
  let rt = Stm.create ~backend (module Tcm_core.Greedy : Tcm_stm.Cm_intf.S) in
  Alcotest.(check string) "preload" store_pin_digest (store_digest rt Store.preload);
  Alcotest.(check string) "prefill" store_pin_digest
    (store_digest rt (Store.prefill rt))

(* The store's build cost, exactly: every word [create] and [preload]
   allocate at [n_keys] = 4096.  Minor words come from [Gc.minor_words]
   (the calling domain's allocation pointer); words allocated straight
   into the major heap are [Gc.counters]' major minus promoted words.
   [Gc.counters]' own minor field is not exact in OCaml 5.1.1: it
   counts the words allocated since the last minor collection at one
   eighth.  At 4096 keys (1024 buckets of 4 slots) the build is about
   6 words a key: per bucket an 18-word variable, its 5-word value
   array and a slot of the bucket array. *)
let store_build_words = 24_591.

let t_store_footprint () =
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let measure f =
    let w0 = allocated () in
    f ();
    allocated () -. w0
  in
  let meter = measure ignore in
  let w = measure (fun () -> Store.preload (Store.create ~n_keys:4096 ())) -. meter in
  Alcotest.(check (float 0.)) "create + preload at 4096 keys" store_build_words w

(* The keyspace is [0, n_keys): reads outside it find nothing, writes
   outside it raise, and so does storing [min_int] (the empty-slot
   mark); a raising transaction changes nothing. *)
let t_store_outside () =
  List.iter
    (fun backend ->
      let rt = Stm.create ~backend (module Tcm_core.Greedy : Tcm_stm.Cm_intf.S) in
      let n = 100 in
      let st = Store.create ~n_keys:n () in
      Store.preload st;
      let get k = Stm.atomically rt (fun tx -> Store.get tx st k) in
      let raises f =
        try
          Stm.atomically rt (fun tx -> f tx);
          false
        with Invalid_argument _ -> true
      in
      List.iter
        (fun k -> check_bool "get outside is None" true (get k = None))
        [ min_int; -1; n; n + 1; max_int ];
      List.iter
        (fun k ->
          check_bool "put outside raises" true (raises (fun tx -> Store.put tx st k 1));
          check_bool "rmw outside raises" true
            (raises (fun tx -> Store.rmw tx st k (fun _ -> Some 1))))
        [ min_int; -1; n; max_int ];
      check_bool "put min_int raises" true
        (raises (fun tx ->
             Store.put tx st 3 30;
             Store.put tx st 4 min_int));
      check_bool "rmw to min_int raises" true
        (raises (fun tx -> Store.rmw tx st 5 (fun _ -> Some min_int)));
      check_bool "raising transactions change nothing" true
        (get 3 = Some 3 && get 4 = Some 4 && get 5 = Some 5);
      let scan lo len = Stm.atomically rt (fun tx -> Store.scan tx st ~lo ~len) in
      check_bool "scan clamps below" true (scan (-5) 10 = (10, 45));
      check_bool "scan clamps above" true (scan (n - 2) max_int = (2, (2 * n) - 3));
      check_bool "scan past the end" true (scan n 5 = (0, 0) && scan max_int max_int = (0, 0)))
    Stm.all_backends

(* The store against an [int option array]: random gets, puts,
   increments, deletes and scans on a 200-key store (64 buckets of 3
   or 4 keys), built or not, on both backends.  Every [rmw] must see
   the model's old binding. *)
let model_keys = 200

let prop_store_model =
  QCheck.Test.make ~name:"store matches an array model" ~count:60
    QCheck.(
      pair bool
        (small_list (triple (int_bound 4) (int_bound (model_keys - 1)) (int_bound 300))))
    (fun (built, ops) ->
      List.for_all
        (fun backend ->
          let rt = Stm.create ~backend (module Tcm_core.Greedy : Tcm_stm.Cm_intf.S) in
          let st = Store.create ~n_keys:model_keys () in
          let model = Array.make model_keys None in
          if built then begin
            Store.preload st;
            Array.iteri (fun k _ -> model.(k) <- Some k) model
          end;
          let seen_ok = ref true in
          let rmw k f =
            Stm.atomically rt (fun tx ->
                Store.rmw tx st k (fun old ->
                    if old <> model.(k) then seen_ok := false;
                    f old));
            model.(k) <- f model.(k)
          in
          let model_scan lo len =
            let n = ref 0 and sum = ref 0 in
            for k = max 0 lo to min model_keys (max 0 lo + len) - 1 do
              Option.iter
                (fun v ->
                  incr n;
                  sum := !sum + v)
                model.(k)
            done;
            (!n, !sum)
          in
          let ops_ok =
            List.for_all
              (fun (op, k, v) ->
                match op with
                | 0 -> Stm.atomically rt (fun tx -> Store.get tx st k) = model.(k)
                | 1 ->
                    Stm.atomically rt (fun tx -> Store.put tx st k v);
                    model.(k) <- Some v;
                    true
                | 2 ->
                    rmw k (function None -> Some 1 | Some x -> Some (x + 1));
                    true
                | 3 ->
                    rmw k (fun _ -> None);
                    true
                | _ ->
                    let lo = k - 20 and len = v - 40 in
                    Stm.atomically rt (fun tx -> Store.scan tx st ~lo ~len)
                    = model_scan lo len)
              ops
          in
          ops_ok && !seen_ok
          && Stm.atomically rt (fun tx ->
                 List.for_all
                   (fun k -> Store.get tx st k = model.(k))
                   (List.init model_keys Fun.id)))
        Stm.all_backends)

(* 4 domains x 200 increments over 256 keys (64 buckets of 4), so
   domains meet on buckets and on keys: no increment may be lost. *)
let t_store_concurrent backend () =
  let rt = Stm.create ~backend (module Tcm_core.Greedy : Tcm_stm.Cm_intf.S) in
  let n = 256 in
  let st = Store.create ~n_keys:n () in
  Store.preload st;
  let total () = snd (Stm.atomically rt (fun tx -> Store.scan tx st ~lo:0 ~len:n)) in
  let before = total () in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 199 do
              let k = ((d * 200) + (i * 7)) mod n in
              Stm.atomically rt (fun tx ->
                  Store.rmw tx st k (function None -> Some 1 | Some v -> Some (v + 1)))
            done))
  in
  List.iter Domain.join doms;
  check_int "no lost increments" 800 (total () - before)

(* ------------------------------------------------------------------ *)
(* Engine end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let small_config backend process =
  {
    Service.default with
    backend;
    workers = 2;
    duration_s = 0.08;
    process;
    queue_cap = 64;
    n_keys = 512;
    seed = 9;
  }

let t_run_invariants backend () =
  let s =
    Service.run
      (small_config backend (Tcm_service.Arrival.Poisson { rate = 1_500. }))
  in
  check_bool "generated traffic" true (s.Service.submitted > 0);
  check_int "submitted = completed + dropped" s.Service.submitted
    (s.Service.completed + s.Service.dropped);
  List.iter
    (fun (c : Service.class_stats) ->
      check_int
        (Sclass.name c.cls ^ " class conservation")
        c.submitted
        (c.completed + c.dropped);
      if c.submitted > 0 then
        check_bool
          (Sclass.name c.cls ^ " attainment in [0,1]")
          true
          (c.attainment >= 0. && c.attainment <= 1.);
      if c.completed > 0 then
        check_bool (Sclass.name c.cls ^ " p99 >= p50") true (c.p99_us >= c.p50_us))
    s.Service.classes;
  (* The class totals are the run totals. *)
  check_int "class totals sum" s.Service.submitted
    (List.fold_left
       (fun acc (c : Service.class_stats) -> acc + c.submitted)
       0 s.Service.classes);
  (* tcm-bench/7 fields: pooled latency orders, and the precomputed-
     schedule generator allocates (at most) a handful of words per
     request — clock reads, never per-request records. *)
  if s.Service.completed > 0 then
    check_bool "pooled p99 >= p50" true (s.Service.p99_us >= s.Service.p50_us);
  check_bool "generator allocation-free (words/req)" true
    (Float.is_nan s.Service.gen_minor_words_per_req
    || s.Service.gen_minor_words_per_req < 32.);
  check_bool "spill counter non-negative" true (s.Service.queue_spills >= 0)

(* Overload: an all-scan mix (the slowest class) offered far beyond
   what one worker with a tiny queue can serve must shed, and the
   sheds must show up in the drop counters.  At 120k rps each of 20
   runs (seeds 10-29) shed 873-1,326 of about 6,000 requests. *)
let t_run_overload_sheds () =
  let cfg =
    {
      (small_config Stm.Locator (Tcm_service.Arrival.Poisson { rate = 120_000. })) with
      Service.workers = 1;
      queue_cap = 8;
      duration_s = 0.05;
      mix = { Sclass.read_w = 0.; scan_w = 1.; rmw_w = 0. };
      scan_len = 256;
    }
  in
  let s = Service.run cfg in
  check_bool "overload drops requests" true (s.Service.dropped > 0);
  check_int "conservation under overload" s.Service.submitted
    (s.Service.completed + s.Service.dropped);
  check_int "queue hit its cap" 8 s.Service.queue_high_water

(* A metrics-enabled run must surface per-class SLO rows through
   tcm.metrics (the Health table the bench prints). *)
let t_run_metrics_slo_rows () =
  Tcm_metrics.reset ();
  Tcm_metrics.enable ();
  let s =
    Service.run
      (small_config Stm.Tl2_backend (Tcm_service.Arrival.Poisson { rate = 1_000. }))
  in
  Tcm_metrics.disable ();
  let rows = Tcm_metrics.Health.slo_rows (Tcm_metrics.snapshot ()) in
  Tcm_metrics.reset ();
  check_bool "slo rows present" true (rows <> []);
  List.iter
    (fun (r : Tcm_metrics.Health.slo_row) ->
      check_bool "backend label" true (r.Tcm_metrics.Health.s_backend = "tl2");
      check_bool "manager label" true (r.Tcm_metrics.Health.s_manager = s.Service.manager);
      check_bool "class label is a known class" true
        (Sclass.of_name r.Tcm_metrics.Health.s_class <> None);
      let cls =
        List.find
          (fun (c : Service.class_stats) ->
            Sclass.name c.cls = r.Tcm_metrics.Health.s_class)
          s.Service.classes
      in
      check_int "metrics requests = engine submitted" cls.Service.submitted
        r.Tcm_metrics.Health.requests;
      check_int "metrics slo_ok = engine slo_ok" cls.Service.slo_ok
        r.Tcm_metrics.Health.slo_ok)
    rows

(* ------------------------------------------------------------------ *)
(* Rate ladder                                                         *)
(* ------------------------------------------------------------------ *)

module Ladder = Tcm_service.Ladder

(* Synthetic summaries with a hand-set attainment, for the pure knee
   arithmetic. *)
let mk_summary ~slo_ok ~submitted : Service.summary =
  {
    backend = "locator";
    manager = "greedy";
    process = "poisson";
    classes =
      [
        {
          Service.cls = Sclass.Read;
          submitted;
          completed = slo_ok;
          dropped = submitted - slo_ok;
          slo_us = 1_000.;
          slo_ok;
          attainment = float_of_int slo_ok /. float_of_int submitted;
          p50_us = 10.;
          p99_us = 20.;
          mean_us = 12.;
        };
      ];
    submitted;
    completed = slo_ok;
    dropped = submitted - slo_ok;
    aborts = 0;
    conflicts = 0;
    elapsed_s = 1.;
    throughput = float_of_int slo_ok;
    offered = float_of_int submitted;
    p50_us = 10.;
    p99_us = 20.;
    queue_high_water = 0;
    queue_spills = 0;
    gen_minor_words_per_req = 0.;
    trace_drops = 0;
    metrics_on = false;
    trace_on = false;
  }

let t_ladder_knee_arithmetic () =
  let rung rps slo_ok submitted =
    { Ladder.offered_rps = rps; summary = mk_summary ~slo_ok ~submitted }
  in
  Alcotest.(check (float 1e-9))
    "attainment pools classes" 0.95
    (Ladder.attainment (mk_summary ~slo_ok:95 ~submitted:100));
  check_bool "no knee while every rung holds" true
    (Ladder.knee [ rung 1_000. 100 100; rung 2_000. 995 1_000 ] = None);
  check_bool "knee = first rung under threshold" true
    (Ladder.knee
       [ rung 1_000. 100 100; rung 2_000. 980 1_000; rung 4_000. 500 1_000 ]
    = Some 2_000.);
  check_bool "empty rungs: no knee" true (Ladder.knee [] = None)

(* A two-rung mini-ladder on the live engine: the top rung offers far
   beyond single-host capacity into a tiny queue, so it must shed and
   fall under the attainment threshold — a knee exists and the rungs
   keep the run invariants.  At 1M rps the top rung read 0.64-0.87
   attainment over seeds 11-30. *)
let t_ladder_live_knee () =
  let cfg =
    {
      Service.default with
      Service.workers = 2;
      duration_s = 0.05;
      queue_cap = 64;
      n_keys = 512;
      seed = 11;
    }
  in
  let c = Ladder.run ~rates:[| 1_000.; 1_000_000. |] cfg in
  check_bool "backend name" true (c.Ladder.backend = "locator");
  check_int "one rung per rate" 2 (List.length c.Ladder.rungs);
  List.iter
    (fun (r : Ladder.rung) ->
      let s = r.Ladder.summary in
      check_int "rung conservation" s.Service.submitted
        (s.Service.completed + s.Service.dropped))
    c.Ladder.rungs;
  let top = List.nth c.Ladder.rungs 1 in
  check_bool "top rung saturates" true
    (Ladder.attainment top.Ladder.summary < Ladder.knee_threshold);
  check_bool "knee detected" true (c.Ladder.knee_rps <> None)

let t_run_rejects_bad_config () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "zero workers rejected" true
    (raises (fun () ->
         Service.run { Service.default with Service.workers = 0 }));
  check_bool "negative duration rejected" true
    (raises (fun () ->
         Service.run { Service.default with Service.duration_s = -1. }));
  check_bool "bad burst_frac rejected" true
    (raises (fun () ->
         Service.run
           {
             Service.default with
             Service.process =
               Tcm_service.Arrival.Bursty
                 { base_rate = 100.; burst_rate = 200.; period_s = 0.1; burst_frac = 1.5 };
           }))

let () =
  Alcotest.run "service"
    [
      ( "squeue",
        [
          Alcotest.test_case "fifo and close-drain" `Quick t_squeue_fifo;
          Alcotest.test_case "overflow counts sheds" `Quick t_squeue_overflow_counts;
          Alcotest.test_case "closed rejects, drains" `Quick t_squeue_closed_rejects;
          Alcotest.test_case "least-loaded spill" `Quick t_squeue_least_loaded_spill;
          Alcotest.test_case "per-shard shed accounting" `Quick
            t_squeue_per_shard_shed;
          Alcotest.test_case "multi-domain conservation" `Quick
            t_squeue_conservation_hammer;
        ] );
      ( "slo",
        [
          Alcotest.test_case "per-class accounting" `Quick t_agg_slo_accounting;
          Alcotest.test_case "completion allocates nothing" `Quick
            t_agg_complete_allocates_nothing;
          Alcotest.test_case "class pick allocates nothing" `Quick
            t_class_pick_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_pick_is_pick_weighted;
          Alcotest.test_case "latency includes queue time" `Quick
            t_latency_includes_queue_time;
        ] );
      ( "store",
        [
          Alcotest.test_case "ops (locator)" `Quick (store_ops Stm.Locator);
          Alcotest.test_case "ops (tl2)" `Quick (store_ops Stm.Tl2_backend);
          Alcotest.test_case "pinned results (locator)" `Quick
            (t_store_pinned Stm.Locator);
          Alcotest.test_case "pinned results (tl2)" `Quick
            (t_store_pinned Stm.Tl2_backend);
          Alcotest.test_case "build footprint" `Quick t_store_footprint;
          Alcotest.test_case "keys outside the keyspace" `Quick t_store_outside;
          QCheck_alcotest.to_alcotest prop_store_model;
          Alcotest.test_case "concurrent increments (locator)" `Quick
            (t_store_concurrent Stm.Locator);
          Alcotest.test_case "concurrent increments (tl2)" `Quick
            (t_store_concurrent Stm.Tl2_backend);
        ] );
      ( "engine",
        [
          Alcotest.test_case "invariants (locator)" `Quick (t_run_invariants Stm.Locator);
          Alcotest.test_case "invariants (tl2)" `Quick
            (t_run_invariants Stm.Tl2_backend);
          Alcotest.test_case "overload sheds" `Quick t_run_overload_sheds;
          Alcotest.test_case "metrics slo rows" `Quick t_run_metrics_slo_rows;
          Alcotest.test_case "config validation" `Quick t_run_rejects_bad_config;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "knee arithmetic" `Quick t_ladder_knee_arithmetic;
          Alcotest.test_case "live knee past saturation" `Quick t_ladder_live_knee;
        ] );
    ]
