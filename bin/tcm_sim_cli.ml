(** CLI for the theory experiments.

    Subcommands:
    - [adversarial]: the Section 4 chain, greedy vs optimal makespans.
    - [bound-sweep]: Theorem 9 check over random instances.
    - [lemma7]: scores of random partitions of G(m, s).
    - [cycle]: the dependency cycle that defeats unbounded FIFO
      waiting, run under every manager.
    - [policies]: one-shot random instance across all managers. *)

open Cmdliner

let greedy_manager = Tcm_core.Registry.find_exn "greedy"

let adversarial s_max =
  Printf.printf "%6s %16s %16s %8s %12s\n" "s" "greedy" "optimal" "ratio" "bound";
  for s = 1 to s_max do
    let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~s () in
    let r, events =
      Tcm_sim.Record.capture (fun () ->
          Tcm_sim.Engine.run_instance ~ranks ~manager:greedy_manager inst)
    in
    let greedy = Option.value r.Tcm_sim.Engine.makespan ~default:(-1) in
    let optimal = 2 * Tcm_sched.Adversarial.optimal_makespan ~s in
    Printf.printf "%6d %16d %16d %8.2f %12d  pending-commit=%b\n" s greedy optimal
      (float_of_int greedy /. float_of_int optimal)
      (Tcm_sched.Bounds.pending_commit_factor ~s)
      (Tcm_sim.Props.pending_commit r events)
  done

let bound_sweep trials n s =
  let worst = ref 0. in
  let violations = ref 0 in
  for seed = 1 to trials do
    let inst = Tcm_sim.Scenarios.random_instance ~seed ~n ~s () in
    let r = Tcm_sim.Engine.run_instance ~manager:greedy_manager inst in
    let rep = Tcm_sim.Props.theorem9_check ~inst r in
    if not rep.Tcm_sim.Props.ok then incr violations;
    if rep.Tcm_sim.Props.optimal > 0 then
      worst :=
        Float.max !worst
          (float_of_int rep.Tcm_sim.Props.measured /. float_of_int rep.Tcm_sim.Props.optimal);
    ()
  done;
  Printf.printf "n=%d s=%d trials=%d  violations=%d  worst-ratio=%.2f  bound=%d\n" n s trials
    !violations !worst
    (Tcm_sched.Bounds.pending_commit_factor ~s)

let lemma7 m s rounds =
  let open Tcm_sched in
  let g = Graph.g_m_s ~m ~s in
  Printf.printf "G(%d,%d): %d vertices, %d edges, S(G)=%.1f\n" m s (Graph.n_vertices g)
    (Graph.n_edges g) (Labeling.score g);
  let rng = Tcm_stm.Splitmix.create ((m * 131) + s) in
  let worst = ref max_int in
  for _ = 1 to rounds do
    let parts = Graph.partition_edges g s (fun _ _ -> Tcm_stm.Splitmix.int rng s) in
    let max_x2, ok = Labeling.lemma7_check ~m parts in
    if not ok then Printf.printf "VIOLATION: max score %.1f < %d\n" (float_of_int max_x2 /. 2.) m;
    worst := min !worst max_x2
  done;
  Printf.printf "min over %d random partitions of max_i S(H_i): %.1f (lemma: >= %d)\n" rounds
    (float_of_int !worst /. 2.)
    m

let cycle () =
  let inst = Tcm_sim.Scenarios.dependency_cycle () in
  List.iter
    (fun manager ->
      let r = Tcm_sim.Engine.run_instance ~horizon:100_000 ~seed:1 ~manager inst in
      Printf.printf "%-22s completed=%-5b makespan=%s aborts=%d\n" r.Tcm_sim.Engine.manager_name
        r.Tcm_sim.Engine.completed
        (match r.Tcm_sim.Engine.makespan with Some m -> string_of_int m | None -> "-")
        r.Tcm_sim.Engine.aborts)
    ((module Tcm_core.Queue_on_block.Unbounded) :: Tcm_core.Registry.simulated)

let timeline s manager_name =
  let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~s () in
  let manager =
    match
      List.find_opt
        (fun m -> Tcm_stm.Cm_intf.name m = String.lowercase_ascii manager_name)
        Tcm_core.Registry.simulated
    with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown manager %S\n" manager_name;
        exit 2
  in
  let r, events =
    Tcm_sim.Record.capture (fun () ->
        Tcm_sim.Engine.run_instance ~ranks ~horizon:5_000 ~seed:1 ~manager inst)
  in
  Printf.printf "chain s=%d under %s (thread i plays T_i):\n%s" s manager_name
    (Tcm_sim.Timeline.render r events)

let halted n =
  let inst = Tcm_sim.Scenarios.halted_owner ~n () in
  List.iter
    (fun manager ->
      let r = Tcm_sim.Engine.run_instance ~horizon:50_000 ~seed:1 ~manager inst in
      Printf.printf "%-14s finished=%-5b survivors-committed=%d/%d\n"
        r.Tcm_sim.Engine.manager_name r.Tcm_sim.Engine.completed r.Tcm_sim.Engine.commits (n - 1))
    Tcm_core.Registry.simulated

let policies seed n s =
  let inst = Tcm_sim.Scenarios.random_instance ~seed ~n ~s () in
  List.iter
    (fun manager ->
      let r = Tcm_sim.Engine.run_instance ~horizon:100_000 ~seed ~manager inst in
      Printf.printf "%-14s makespan=%-6s commits=%d aborts=%d\n" r.Tcm_sim.Engine.manager_name
        (match r.Tcm_sim.Engine.makespan with Some m -> string_of_int m | None -> "-")
        r.Tcm_sim.Engine.commits r.Tcm_sim.Engine.aborts)
    Tcm_core.Registry.simulated

let s_arg = Arg.(value & opt int 8 & info [ "s" ] ~doc:"Number of shared objects.")
let n_arg = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of transactions.")
let trials_arg = Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Number of random instances.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
let m_arg = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Lemma 7 parameter m.")
let rounds_arg = Arg.(value & opt int 25 & info [ "rounds" ] ~doc:"Random partitions to test.")

let cmds =
  [
    Cmd.v (Cmd.info "adversarial" ~doc:"Section 4 chain: greedy vs optimal.")
      Term.(const adversarial $ s_arg);
    Cmd.v
      (Cmd.info "bound-sweep" ~doc:"Theorem 9 bound check over random instances.")
      Term.(const bound_sweep $ trials_arg $ n_arg $ Arg.(value & opt int 3 & info [ "s" ]));
    Cmd.v (Cmd.info "lemma7" ~doc:"Scores of random partitions of G(m,s).")
      Term.(const lemma7 $ m_arg $ Arg.(value & opt int 2 & info [ "s" ]) $ rounds_arg);
    Cmd.v (Cmd.info "cycle" ~doc:"Dependency cycle under each manager.") Term.(const cycle $ const ());
    Cmd.v
      (Cmd.info "halted" ~doc:"Halted transaction holding a hot object, under each manager.")
      Term.(const halted $ n_arg);
    Cmd.v
      (Cmd.info "timeline" ~doc:"ASCII timeline of the chain under a chosen manager.")
      Term.(
        const timeline
        $ Arg.(value & opt int 5 & info [ "s" ])
        $ Arg.(value & opt string "greedy" & info [ "policy" ]));
    Cmd.v (Cmd.info "policies" ~doc:"One random instance across all managers.")
      Term.(const policies $ seed_arg $ n_arg $ Arg.(value & opt int 3 & info [ "s" ]));
  ]

let () =
  let doc = "Theory experiments for the transactional contention-manager reproduction." in
  exit (Cmd.eval (Cmd.group (Cmd.info "tcm-sim" ~doc) cmds))
