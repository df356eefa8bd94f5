(** CLI for the Figure 1–4 reproductions.

    Examples:

    {v
    tcm_figures fig1
    tcm_figures fig3 --mode real --threads 1,2,4 --duration 0.2
    tcm_figures fig1 --mode real --backend tl2
    tcm_figures all --mode sim --horizon 8000
    tcm_figures --summary BENCH.json
    v} *)

open Cmdliner
open Tcm_workload

let figure_arg =
  let doc = "Figure to run: fig1, fig2, fig3, fig4 or all." in
  Arg.(value & pos 0 string "all" & info [] ~docv:"FIGURE" ~doc)

let mode_arg =
  let doc = "Execution mode: 'sim' (deterministic discrete-event) or 'real' (live STM)." in
  Arg.(value & opt string "sim" & info [ "mode" ] ~doc)

let threads_arg =
  let doc = "Comma-separated thread counts." in
  Arg.(value & opt string "1,2,4,8,16,24,32" & info [ "threads" ] ~doc)

let duration_arg =
  let doc = "Seconds per data point (real mode)." in
  Arg.(value & opt float 0.2 & info [ "duration" ] ~doc)

let horizon_arg =
  let doc = "Ticks per data point (sim mode)." in
  Arg.(value & opt int 6000 & info [ "horizon" ] ~doc)

let usec_per_tick_arg =
  let doc =
    "Microseconds of manager backoff or wait per simulated tick (sim mode; default 1)."
  in
  Arg.(value & opt (some int) None & info [ "usec-per-tick" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let backend_arg =
  let doc =
    "Runtime backend for real mode: 'locator' (obstruction-free, default) or 'tl2' \
     (lock-based).  Sim mode always models the locator protocol."
  in
  Arg.(value & opt string "locator" & info [ "backend" ] ~doc)

let summary_arg =
  let doc =
    "Summarize a bench JSON dump (bench/main.exe --json) instead of running figures: \
     per-figure throughput, GC words per committed transaction (schema tcm-bench/2+), \
     the runtime backend per sweep (tcm-bench/3+), open-loop service summaries \
     (tcm-bench/4+), and the rate-ladder attainment / latency-degradation curves \
     with the saturation knee marked (tcm-bench/7).  Accepts every shipped schema; \
     refuses dumps with a missing or unknown schema header."
  in
  Arg.(value & opt (some file) None & info [ "summary" ] ~docv:"FILE" ~doc)

let parse_threads s =
  String.split_on_char ',' s |> List.filter (fun x -> x <> "") |> List.map int_of_string

(* ------------------------------------------------------------------ *)
(* --summary: re-read a bench dump (tcm-bench/1, /2 or /3)             *)
(* ------------------------------------------------------------------ *)

let num = function
  | Some (Report.Json.Int i) -> float_of_int i
  | Some (Report.Json.Float f) -> f
  | _ -> nan

let jstr = function Some (Report.Json.Str s) -> s | _ -> "?"

let jarr = function Some (Report.Json.Arr xs) -> xs | _ -> []

let per_commit words commits =
  if Float.is_nan words || commits <= 0. then "-"
  else Printf.sprintf "%.1f" (words /. commits)

let summarize path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j =
    match Report.Json.of_string text with
    | j -> j
    | exception Report.Json.Parse_error msg ->
        Printf.eprintf "%s: malformed JSON (%s)\n" path msg;
        exit 2
  in
  let open Report.Json in
  let schema =
    match Report.bench_schema_of j with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 2
  in
  Printf.printf "bench dump %s (schema %s, mode %s, seed %.0f)\n" path schema
    (jstr (member "mode" j))
    (num (member "seed" j));
  let render_sweep fig backend =
    Printf.printf "\n== %s [%s]: %s ==\n" (jstr (member "id" fig)) backend
      (jstr (member "title" fig));
    Printf.printf "%8s %-14s %12s %10s %12s %12s\n" "threads" "manager" "throughput"
      "commits" "minor-w/txn" "major-w/txn";
    List.iter
      (fun row ->
        let threads = num (member "threads" row) in
        List.iter
          (fun m ->
            let commits = num (member "commits" m) in
            (* tcm-bench/1 rows have no words fields; render "-". *)
            Printf.printf "%8.0f %-14s %12.1f %10.0f %12s %12s\n" threads
              (jstr (member "name" m))
              (num (member "throughput" m))
              commits
              (per_commit (num (member "minor_words" m)) commits)
              (per_commit (num (member "major_words" m)) commits))
          (jarr (member "managers" row)))
      (jarr (member "rows" fig))
  in
  (* tcm-bench/4+: one line per open-loop service run. *)
  let render_service fig backend =
    Printf.printf
      "\n== service [%s/%s]: %s — %.0f submitted, %.0f completed, %.0f \
       dropped, %.0f/s, p50 %.1f us, p99 %.1f us ==\n"
      backend
      (jstr (member "manager" fig))
      (jstr (member "process" fig))
      (num (member "submitted" fig))
      (num (member "completed" fig))
      (num (member "dropped" fig))
      (num (member "throughput" fig))
      (num (member "latency_p50_us" fig))
      (num (member "latency_p99_us" fig));
    List.iter
      (fun c ->
        Printf.printf "  %-6s slo %6.0f us  attainment %6.1f%%  p99 %9.1f us\n"
          (jstr (member "class" c))
          (num (member "slo_us" c))
          (100. *. num (member "slo_attainment" c))
          (num (member "latency_p99_us" c)))
      (jarr (member "classes" fig))
  in
  (* tcm-bench/7: the saturation sweep — attainment-vs-load and
     latency-degradation curves, knee marked on its rung. *)
  let render_ladder fig backend =
    let knee = num (member "knee_rps" fig) in
    Printf.printf "\n== ladder [%s/%s]: %s ==\n" backend
      (jstr (member "manager" fig))
      (jstr (member "title" fig));
    Printf.printf "%12s %12s %12s %12s %9s %8s\n" "offered rps" "attainment"
      "p50 (us)" "p99 (us)" "dropped" "spills";
    List.iter
      (fun r ->
        let rps = num (member "offered_rps" r) in
        Printf.printf "%12.0f %11.1f%% %12.1f %12.1f %9.0f %8.0f%s\n" rps
          (100. *. num (member "attainment" r))
          (num (member "latency_p50_us" r))
          (num (member "latency_p99_us" r))
          (num (member "dropped" r))
          (num (member "queue_spills" r))
          (if (not (Float.is_nan knee)) && rps = knee then "   <- knee" else ""))
      (jarr (member "rungs" fig));
    if Float.is_nan knee then
      Printf.printf "  (no knee: every rung held its SLOs)\n"
    else
      Printf.printf "  knee at %.0f rps (first rung under %.0f%% attainment)\n"
        knee
        (100. *. num (member "knee_threshold" fig))
  in
  let render_obs fig backend =
    Printf.printf
      "== obs [%s/%s/%s] class %s: %.0f commits, %.0f aborts, wasted %.0f, \
       price %.0f ==\n"
      backend
      (jstr (member "manager" fig))
      (jstr (member "runtime" fig))
      (jstr (member "class" fig))
      (num (member "commits" fig))
      (num (member "aborts" fig))
      (num (member "wasted_work" fig))
      (num (member "price" fig))
  in
  let render_consult fig backend =
    Printf.printf "== consult [%s/%s]: %.1f ns, %.4f minor words per resolve ==\n"
      backend
      (jstr (member "manager" fig))
      (num (member "ns_per_resolve" fig))
      (num (member "minor_words_per_resolve" fig))
  in
  List.iter
    (fun fig ->
      (* Pre-/3 dumps have no backend field; those sweeps ran on the
         (then only) locator runtime.  Pre-/4 dumps have no kind field;
         every figure was a closed-loop sweep. *)
      let backend =
        match member "backend" fig with Some (Str b) -> b | _ -> "locator"
      in
      match member "kind" fig with
      | None | Some (Str "sweep") -> render_sweep fig backend
      | Some (Str "service") -> render_service fig backend
      | Some (Str "ladder") -> render_ladder fig backend
      | Some (Str "obs") -> render_obs fig backend
      | Some (Str "consult") -> render_consult fig backend
      | Some (Str k) -> Printf.printf "\n== (unrendered figure kind %S) ==\n" k
      | Some _ -> Printf.printf "\n== (malformed figure kind) ==\n")
    (jarr (member "figures" j))

let run_figures figure mode threads duration horizon usec_per_tick seed backend =
  let backend =
    match Tcm_stm.Stm.backend_of_name backend with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown backend %S (locator or tl2)\n" backend;
        exit 2
  in
  let specs =
    match figure with
    | "all" -> Figures.all
    | id -> (
        match Figures.of_id id with
        | Some f -> [ f ]
        | None -> (
            Printf.eprintf "unknown figure %S (fig1..fig4 or all)\n" id;
            exit 2))
  in
  let mode =
    match mode with
    | "sim" -> Figures.Sim { horizon }
    | "real" -> Figures.Real { duration_s = duration }
    | m ->
        Printf.eprintf "unknown mode %S (sim or real)\n" m;
        exit 2
  in
  (match usec_per_tick with
  | Some n when n < 1 ->
      Printf.eprintf "--usec-per-tick must be at least 1 (got %d)\n" n;
      exit 2
  | _ -> ());
  let threads_list = parse_threads threads in
  List.iter
    (fun spec ->
      let r = Figures.run ~threads_list ~seed ~mode ~backend ?usec_per_tick spec in
      Report.print_figure Format.std_formatter r)
    specs

let run summary figure mode threads duration horizon usec_per_tick seed backend =
  match summary with
  | Some path -> summarize path
  | None -> run_figures figure mode threads duration horizon usec_per_tick seed backend

let cmd =
  let doc = "Reproduce the figures of 'Toward a Theory of Transactional Contention Managers'." in
  Cmd.v
    (Cmd.info "tcm-figures" ~doc)
    Term.(
      const run $ summary_arg $ figure_arg $ mode_arg $ threads_arg $ duration_arg
      $ horizon_arg $ usec_per_tick_arg $ seed_arg $ backend_arg)

let () = exit (Cmd.eval cmd)
