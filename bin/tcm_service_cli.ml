(** Drive the tcm.service open-loop KV engine from the command line,
    and validate bench JSON dumps that carry service figures.

    [run] executes one service instance (backend x manager x arrival
    process) and prints the per-class SLO summary; with [--flight-dir]
    it also arms the tcm.obs flight recorder and dumps breach bundles.
    [validate] checks a [bench/main.exe --json] dump: schema
    tcm-bench/7 with at least one [kind = "service"] figure
    whose per-class entries carry the SLO and latency fields; with
    [--store N] it additionally builds an N-key store via the direct
    preload path, spot-checks it transactionally on both backends, and
    verifies the preload is measurably faster per key than the
    transactional reference build.  [ladder] runs the offered-load
    rate ladder on both backends; [--check] turns it into the smoke
    gate (knee detected on each backend, exact admission conservation
    on every rung, an allocation-free generator, and the sharded
    admission queue beating the single-mutex baseline). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let backend_of_string = function
  | "locator" -> Tcm_stm.Stm.Locator
  | "tl2" -> Tcm_stm.Stm.Tl2_backend
  | b ->
      Printf.eprintf "error: --backend must be locator or tl2, got %S\n" b;
      exit 2

let manager_of_string name =
  match Tcm_core.Registry.find name with
  | Some m -> m
  | None ->
      Printf.eprintf "error: unknown manager %S (known: %s)\n" name
        (String.concat ", "
           (List.map Tcm_stm.Cm_intf.name Tcm_core.Registry.all));
      exit 2

let run backend manager duration rate burst_rate burst_period burst_frac
    workers queue_cap n_keys theta seed flight_dir slo_scale =
  let process =
    match burst_rate with
    | None -> Tcm_service.Arrival.Poisson { rate }
    | Some burst_rate ->
        Tcm_service.Arrival.Bursty
          { base_rate = rate; burst_rate; period_s = burst_period; burst_frac }
  in
  let flight =
    Option.map
      (fun dir ->
        Tcm_obs.Flight.create ~dir ~tag:(backend ^ "-" ^ manager) ())
      flight_dir
  in
  let cfg =
    {
      Tcm_service.Service.default with
      backend = backend_of_string backend;
      manager = manager_of_string manager;
      duration_s = duration;
      process;
      workers;
      queue_cap;
      n_keys;
      theta;
      seed;
      slo_us =
        Array.map
          (fun s -> s *. slo_scale)
          Tcm_service.Service.default.slo_us;
      flight;
    }
  in
  (* Metrics on for the run; that also arms the ledger and hot keys the
     flight recorder's bundles carry. *)
  Tcm_obs.reset ();
  Tcm_metrics.enable ();
  let s = Tcm_service.Service.run cfg in
  Format.printf "%a@." Tcm_service.Service.pp_summary s;
  Tcm_metrics.Health.pp_slo Format.std_formatter
    (Tcm_metrics.Health.slo_rows (Tcm_metrics.snapshot ()));
  (match flight with
  | None -> ()
  | Some f ->
      (* Flush the final window so a breach-free run still leaves one
         bundle to inspect, then show what the ledger saw. *)
      Tcm_obs.Flight.force f ~trigger:"run_end";
      Format.printf "%a" Tcm_obs.Ledger.pp (Tcm_obs.Ledger.rows ());
      Format.printf "%a" (Tcm_obs.Hot.pp ?n:None) (Tcm_obs.Hot.top ());
      Printf.printf "flight: %d bundle(s) in %s\n" (Tcm_obs.Flight.count f)
        (Tcm_obs.Flight.dir f));
  Tcm_metrics.disable ()

let backend_arg =
  Arg.(
    value & opt string "locator"
    & info [ "backend" ] ~docv:"BACKEND" ~doc:"Runtime backend (locator or tl2).")

let manager_arg =
  Arg.(
    value & opt string "greedy"
    & info [ "manager" ] ~docv:"CM" ~doc:"Contention manager (registry name).")

let duration_arg =
  Arg.(
    value & opt float 0.5
    & info [ "duration" ] ~docv:"S" ~doc:"Traffic duration in seconds.")

let rate_arg =
  Arg.(
    value & opt float 2_000.
    & info [ "rate" ] ~docv:"RPS"
        ~doc:"Arrival rate (Poisson; the base rate when bursty).")

let burst_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "burst-rate" ] ~docv:"RPS"
        ~doc:"Enable bursty on/off arrivals with this peak rate.")

let burst_period_arg =
  Arg.(
    value & opt float 0.2
    & info [ "burst-period" ] ~docv:"S" ~doc:"Bursty on/off cycle length.")

let burst_frac_arg =
  Arg.(
    value & opt float 0.25
    & info [ "burst-frac" ] ~docv:"F"
        ~doc:"Fraction of each cycle spent at the burst rate.")

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")

let queue_cap_arg =
  Arg.(
    value & opt int 512
    & info [ "queue-cap" ] ~docv:"N" ~doc:"Admission-queue capacity (sheds beyond).")

let n_keys_arg =
  Arg.(value & opt int 8_192 & info [ "keys" ] ~docv:"N" ~doc:"Keyspace size.")

let theta_arg =
  Arg.(
    value & opt float 0.9
    & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew, 0 <= T < 1 (0 = uniform).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let flight_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Arm the SLO-breach flight recorder: enable tcm.obs for the run \
           and write breach bundles (plus a final run_end bundle) to $(docv); \
           inspect them with tcm_obs.exe report.")

let slo_scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "slo-scale" ] ~docv:"F"
        ~doc:
          "Scale every class SLO by $(docv) (e.g. 0.01 tightens them 100x to \
           force breaches — the smoke test's trick).")

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

module Json = Tcm_workload.Report.Json

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2

let fail fmt = Printf.ksprintf (fun msg -> Printf.eprintf "error: %s\n" msg; exit 1) fmt

(* The per-class fields a service figure must carry. *)
let class_fields =
  [
    "class"; "submitted"; "completed"; "dropped"; "slo_us"; "slo_ok";
    "slo_attainment"; "latency_p50_us"; "latency_p99_us";
  ]

let check_service_figure j =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> fail "service figure missing %S" k in
  let backend = str "backend" in
  let manager = str "manager" in
  let classes =
    match Json.member "classes" j with
    | Some (Json.Arr cs) when cs <> [] -> cs
    | _ -> fail "service figure %s/%s has no classes" backend manager
  in
  List.iter
    (fun c ->
      List.iter
        (fun k ->
          if Json.member k c = None then
            fail "service figure %s/%s: class entry missing %S" backend manager k)
        class_fields)
    classes;
  (backend, manager)

let validate_dump path =
  let j =
    try Json.of_string (String.trim (read_file path))
    with Json.Parse_error msg -> fail "%s: %s" path msg
  in
  let schema =
    match Tcm_workload.Report.bench_schema_of j with
    | Ok s -> s
    | Error msg -> fail "%s: %s" path msg
  in
  let figures =
    match Json.member "figures" j with
    | Some (Json.Arr fs) -> fs
    | _ -> fail "%s: missing figures array" path
  in
  let kind_of f =
    match Json.member "kind" f with Some (Json.Str k) -> k | _ -> fail "figure entry missing \"kind\""
  in
  let services = List.filter (fun f -> kind_of f = "service") figures in
  if services = [] then fail "%s: no kind=\"service\" figure entries" path;
  let pairs = List.map check_service_figure services in
  let uniq l = List.sort_uniq compare l in
  Printf.printf
    "%s: OK (%s; %d figure entries, %d service: %d backend(s) x %d manager(s))\n"
    path schema (List.length figures)
    (List.length services)
    (List.length (uniq (List.map fst pairs)))
    (List.length (uniq (List.map snd pairs)))

(* ------------------------------------------------------------------ *)
(* validate --store: end-to-end million-key store check                *)
(* ------------------------------------------------------------------ *)

(* Build an [n]-key store through the direct (non-transactional)
   preload path, spot-check it transactionally on both backends, and
   verify the preload is measurably faster per key than the
   transactional reference build it replaced. *)
let validate_store n =
  if n < 1 then fail "--store requires a positive key count, got %d" n;
  let manager = manager_of_string "greedy" in
  let spot_checks backend =
    let t0 = Unix.gettimeofday () in
    let store = Tcm_service.Store.create ~n_keys:n () in
    Tcm_service.Store.preload store;
    let preload_s = Unix.gettimeofday () -. t0 in
    let rt = Tcm_stm.Stm.create ~backend manager in
    let name = Tcm_stm.Stm.backend_name backend in
    let get k =
      Tcm_stm.Stm.atomically rt (fun tx -> Tcm_service.Store.get tx store k)
    in
    let rng = Tcm_stm.Splitmix.create (0x5707 + n) in
    (* Point lookups: boundaries, a random sample, and one past the
       keyspace (preload stores value = key). *)
    List.iter
      (fun k ->
        match get k with
        | Some v when v = k -> ()
        | Some v -> fail "%s: get %d returned %d (expected %d)" name k v k
        | None -> fail "%s: get %d returned None after preload" name k)
      (0 :: (n - 1) :: List.init 64 (fun _ -> Tcm_stm.Splitmix.int rng n));
    if get n <> None then fail "%s: get %d (out of range) returned a binding" name n;
    (* Ordered scans over the dense keyspace: [len] consecutive keys
       from a random base must come back complete and correctly
       summed. *)
    for _ = 1 to 16 do
      let len = 64 in
      let lo = Tcm_stm.Splitmix.int rng (max 1 (n - len)) in
      let count, sum =
        Tcm_stm.Stm.atomically rt (fun tx ->
            Tcm_service.Store.scan tx store ~lo ~len)
      in
      let want = min len (n - lo) in
      let want_sum = ((lo + lo + want - 1) * want) / 2 in
      if count <> want || sum <> want_sum then
        fail "%s: scan lo=%d len=%d returned (%d, %d), expected (%d, %d)" name
          lo len count sum want want_sum
    done;
    (* A read-modify-write: a copy of the key's bucket, written back. *)
    let k = Tcm_stm.Splitmix.int rng n in
    Tcm_stm.Stm.atomically rt (fun tx ->
        Tcm_service.Store.rmw tx store k (Option.map (fun v -> v + 1)));
    (match get k with
    | Some v when v = k + 1 -> ()
    | v ->
        fail "%s: rmw at %d not visible (got %s)" name k
          (match v with Some v -> string_of_int v | None -> "None"));
    Printf.printf
      "  %-8s preload %.3fs (%.0f keys/s); point/scan/rmw spot checks OK\n"
      name preload_s
      (float_of_int n /. preload_s);
    preload_s
  in
  List.iter (fun b -> ignore (spot_checks b)) Tcm_stm.Stm.all_backends;
  (* Per-key rate comparison against the transactional reference
     build, both paths building a store of the same size (a slice of
     the keyspace: the full transactional build would dominate the CI
     budget). *)
  let ref_n = min n 20_000 in
  let pre_store = Tcm_service.Store.create ~n_keys:ref_n () in
  let t0 = Unix.gettimeofday () in
  Tcm_service.Store.preload pre_store;
  let preload_s = Unix.gettimeofday () -. t0 in
  let ref_store = Tcm_service.Store.create ~n_keys:ref_n () in
  let rt = Tcm_stm.Stm.create manager in
  let t1 = Unix.gettimeofday () in
  Tcm_service.Store.prefill rt ref_store;
  let prefill_s = Unix.gettimeofday () -. t1 in
  let per_key_pre = preload_s /. float_of_int ref_n in
  let per_key_txn = prefill_s /. float_of_int ref_n in
  Printf.printf
    "  preload %.0f ns/key vs transactional build %.0f ns/key (%.1fx)\n"
    (per_key_pre *. 1e9) (per_key_txn *. 1e9)
    (per_key_txn /. per_key_pre);
  if per_key_pre *. 2. > per_key_txn then
    fail
      "preload not measurably faster than the transactional build \
       (%.0f ns/key vs %.0f ns/key; need >= 2x)"
      (per_key_pre *. 1e9) (per_key_txn *. 1e9);
  Printf.printf "store: OK (%d keys on %d backend(s))\n" n
    (List.length Tcm_stm.Stm.all_backends)

let validate path store =
  (match path with Some p -> validate_dump p | None -> ());
  (match store with Some n -> validate_store n | None -> ());
  if path = None && store = None then
    fail "nothing to validate: pass a BENCH_JSON file and/or --store N"

let file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"BENCH_JSON" ~doc:"Bench dump to validate.")

let store_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "store" ] ~docv:"N"
        ~doc:
          "Also validate an $(docv)-key store end-to-end: direct preload, \
           transactional spot checks on both backends, and the \
           preload-vs-transactional-build speed gate.")

(* ------------------------------------------------------------------ *)
(* ladder                                                              *)
(* ------------------------------------------------------------------ *)

(* Producer-side push+pop cost through the sharded admission queue vs
   the retired single-mutex ring, per op, best of [trials].  Run with
   [shards] shards so the round-robin dispatch and per-shard ring
   arithmetic are on the measured path (>= 4 matches the gated worker
   count); each push is drained immediately, so occupancy stays at one
   and the comparison isolates the admission cost itself. *)
let queue_ab ~shards ~ops ~trials =
  let best f =
    let b = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      f ();
      b := Float.min !b (Unix.gettimeofday () -. t0)
    done;
    !b
  in
  let sharded =
    best (fun () ->
        let q = Tcm_service.Squeue.create ~shards 1024 in
        for i = 0 to ops - 1 do
          ignore (Tcm_service.Squeue.try_push q i);
          ignore
            (Tcm_service.Squeue.pop q ~shard:(Tcm_service.Squeue.last_shard q))
        done)
  in
  let mutex =
    best (fun () ->
        let q = Tcm_service.Squeue.Single_mutex.create 1024 in
        for i = 0 to ops - 1 do
          ignore (Tcm_service.Squeue.Single_mutex.try_push q i);
          ignore (Tcm_service.Squeue.Single_mutex.pop q)
        done)
  in
  (sharded /. float_of_int ops *. 1e9, mutex /. float_of_int ops *. 1e9)

let ladder manager duration rates workers queue_cap n_keys theta seed check =
  let manager = manager_of_string manager in
  let rates =
    match rates with
    | [] -> Tcm_service.Ladder.quick_rates
    | rs -> Array.of_list rs
  in
  let failures = ref [] in
  let gate fmt =
    Printf.ksprintf
      (fun msg ->
        failures := msg :: !failures;
        Printf.printf "  GATE VIOLATION: %s\n" msg)
      fmt
  in
  Printf.printf "%-8s %10s %12s %12s %12s %9s %8s %10s\n" "backend" "rps"
    "attainment" "p50 (us)" "p99 (us)" "dropped" "spills" "gen w/req";
  List.iter
    (fun backend ->
      let cfg =
        {
          Tcm_service.Service.default with
          backend;
          manager;
          duration_s = duration;
          workers;
          queue_cap;
          n_keys;
          theta;
          seed;
        }
      in
      let c = Tcm_service.Ladder.run ~rates cfg in
      List.iter
        (fun (r : Tcm_service.Ladder.rung) ->
          let s = r.Tcm_service.Ladder.summary in
          let open Tcm_service.Service in
          Printf.printf "%-8s %10.0f %11.1f%% %12.1f %12.1f %9d %8d %10.1f\n"
            c.Tcm_service.Ladder.backend r.Tcm_service.Ladder.offered_rps
            (100. *. Tcm_service.Ladder.attainment s)
            s.p50_us s.p99_us s.dropped s.queue_spills
            s.gen_minor_words_per_req;
          if check then begin
            (* Exact admission conservation on every rung: nothing the
               generator produced may go unaccounted. *)
            if s.submitted <> s.completed + s.dropped then
              gate "%s @ %.0f rps: submitted %d <> completed %d + dropped %d"
                c.Tcm_service.Ladder.backend r.Tcm_service.Ladder.offered_rps
                s.submitted s.completed s.dropped;
            (* The precomputed-schedule generator must not allocate per
               request (clock reads only; the budget is words, not
               bytes, and leaves room for boxing in the timer calls). *)
            if Float.is_finite s.gen_minor_words_per_req
               && s.gen_minor_words_per_req > 32.
            then
              gate "%s @ %.0f rps: generator allocates %.1f minor words/request"
                c.Tcm_service.Ladder.backend r.Tcm_service.Ladder.offered_rps
                s.gen_minor_words_per_req
          end)
        c.Tcm_service.Ladder.rungs;
      (match c.Tcm_service.Ladder.knee_rps with
      | Some r ->
          Printf.printf "  -> knee: %s saturates at %.0f rps\n"
            c.Tcm_service.Ladder.backend r
      | None ->
          Printf.printf "  -> no knee: %s held its SLOs on every rung\n"
            c.Tcm_service.Ladder.backend;
          if check then
            gate "%s: ladder never crossed saturation (no knee detected)"
              c.Tcm_service.Ladder.backend))
    Tcm_stm.Stm.all_backends;
  if check then begin
    let shards = max 4 workers in
    let sharded_ns, mutex_ns = queue_ab ~shards ~ops:200_000 ~trials:3 in
    Printf.printf
      "admission push+pop: sharded %.0f ns/op vs single-mutex %.0f ns/op \
       (%d shards)\n"
      sharded_ns mutex_ns shards;
    if sharded_ns >= mutex_ns then
      gate
        "sharded admission (%.0f ns/op) does not beat the single-mutex \
         baseline (%.0f ns/op)"
        sharded_ns mutex_ns;
    match !failures with
    | [] -> Printf.printf "ladder: OK (all gates held)\n"
    | fs ->
        Printf.eprintf "ladder: %d gate violation(s)\n" (List.length fs);
        exit 1
  end

let rates_arg =
  Arg.(
    value
    & opt (list float) []
    & info [ "rates" ] ~docv:"RPS,..."
        ~doc:
          "Comma-separated rung rates (ascending).  Default: the 3-rung \
           mini-ladder (8k/64k/2M).")

let ladder_duration_arg =
  Arg.(
    value & opt float 0.12
    & info [ "duration" ] ~docv:"S" ~doc:"Traffic duration per rung.")

let ladder_workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains (= admission-queue shards).")

let ladder_keys_arg =
  Arg.(
    value & opt int 8_192 & info [ "keys" ] ~docv:"N" ~doc:"Keyspace size.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Gate the run: fail unless a knee is detected on every backend, \
           admission conservation is exact on every rung, the generator \
           stays allocation-free, and the sharded queue beats the \
           single-mutex baseline on push+pop cost.")

let cmds =
  [
    Cmd.v
      (Cmd.info "run"
         ~doc:"Run one open-loop service instance and print the per-class SLO summary.")
      Term.(
        const run $ backend_arg $ manager_arg $ duration_arg $ rate_arg
        $ burst_rate_arg $ burst_period_arg $ burst_frac_arg $ workers_arg
        $ queue_cap_arg $ n_keys_arg $ theta_arg $ seed_arg $ flight_dir_arg
        $ slo_scale_arg);
    Cmd.v
      (Cmd.info "validate"
         ~doc:
           "Check a bench JSON dump (schema tcm-bench/7 with well-formed \
            service figures) and/or an N-key store end-to-end (--store).")
      Term.(const validate $ file_arg $ store_arg);
    Cmd.v
      (Cmd.info "ladder"
         ~doc:
           "Run the offered-load rate ladder on both backends; with --check, \
            gate knee detection, conservation, generator allocation and the \
            sharded-admission speedup.")
      Term.(
        const ladder $ manager_arg $ ladder_duration_arg $ rates_arg
        $ ladder_workers_arg $ queue_cap_arg $ ladder_keys_arg $ theta_arg
        $ seed_arg $ check_arg);
  ]

let () =
  let doc = "Drive and validate the tcm.service open-loop KV engine." in
  exit (Cmd.eval (Cmd.group (Cmd.info "tcm-service" ~doc) cmds))
