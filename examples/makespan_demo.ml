(** A walk through the paper's Section 4 worst-case example.

    Builds the chain instance T0..Ts over objects X1..Xs, runs it under
    the simulated greedy manager, prints the commit order, and compares
    against the even/odd optimal list schedule — showing greedy's
    makespan growing linearly in s while the optimum stays at 2 time
    units, and that the Theorem 9 bound still holds.

    Usage: [dune exec examples/makespan_demo.exe -- [s]] *)

let () =
  let s = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 6 in
  let granularity = 2 in
  let inst, ranks = Tcm_sim.Scenarios.adversarial_chain ~granularity ~s () in
  Printf.printf "Chain instance: %d transactions over %d objects.\n" (s + 1) s;
  Printf.printf "T_i opens X_(i+1) at time 0 and X_i at time 1-eps; T_i is older than T_(i-1).\n\n";
  let r, events =
    Tcm_sim.Record.capture (fun () ->
        Tcm_sim.Engine.run_instance ~ranks ~manager:(module Tcm_core.Greedy) inst)
  in
  Printf.printf "Commit order under greedy (tick = %d per paper time unit):\n" granularity;
  Array.iter
    (fun (e : Tcm_trace.Event.t) ->
      (* A commit names its transaction by timestamp: T_i's is ranks.(i). *)
      if e.kind = Tcm_trace.Event.Commit then
        Printf.printf "  T%-2d commits at time %.1f\n"
          (Option.get (Array.find_index (( = ) e.a) ranks))
          (float_of_int e.tick /. float_of_int granularity))
    events;
  let greedy = Option.value r.Tcm_sim.Engine.makespan ~default:(-1) in
  let optimal = granularity * Tcm_sched.Adversarial.optimal_makespan ~s in
  Printf.printf "\ngreedy makespan : %.1f time units (paper: s+1 = %d)\n"
    (float_of_int greedy /. float_of_int granularity)
    (s + 1);
  Printf.printf "optimal makespan: %.1f time units (paper: 2)\n"
    (float_of_int optimal /. float_of_int granularity);
  Printf.printf "ratio %.2f <= theorem-9 factor s(s+1)+2 = %d : %b\n"
    (float_of_int greedy /. float_of_int optimal)
    (Tcm_sched.Bounds.pending_commit_factor ~s)
    (greedy <= Tcm_sched.Bounds.pending_commit_factor ~s * optimal);
  Printf.printf "pending-commit property held throughout: %b\n"
    (Tcm_sim.Props.pending_commit r events);
  Printf.printf "\nTimeline (thread i plays T_i):\n%s" (Tcm_sim.Timeline.render r events)
