(** Parameter sweeps reproducing the paper's Figures 1–4.

    Each figure sweeps thread counts for a fixed application and
    reports committed transactions per second (real mode) or per 1000
    simulated ticks (sim mode) for each contention manager.  The five
    managers plotted are the paper's: Greedy, Karma, Eruption,
    Aggressive and Backoff (Polite). *)

open Tcm_stm

type mode =
  | Real of { duration_s : float }
      (** Live STM on OCaml domains.  Wall-clock dependent; with
          more domains than hardware threads the domains timeslice and
          the curves flatten, but relative manager behaviour under
          conflicts survives. *)
  | Sim of { horizon : int }
      (** Deterministic discrete-event simulation of the same access
          patterns; reproduces the paper's shapes hardware-
          independently. *)

type spec = {
  id : string;
  title : string;
  structure : Harness.structure;
  post_work : int;  (** Real mode: uncontended tail iterations. *)
  sim_tail : int;  (** Sim mode: uncontended tail ticks. *)
}

let fig1 = { id = "fig1"; title = "List application"; structure = Harness.List_s; post_work = 0; sim_tail = 0 }

let fig2 =
  { id = "fig2"; title = "Skiplist application"; structure = Harness.Skiplist_s; post_work = 0; sim_tail = 0 }

let fig3 =
  {
    id = "fig3";
    title = "Red-black application (low contention)";
    structure = Harness.Rbtree_s;
    post_work = 4_000;
    sim_tail = 20;
  }

let fig4 =
  {
    id = "fig4";
    title = "Red-black forest application";
    structure = Harness.Rbforest_s;
    post_work = 0;
    sim_tail = 0;
  }

let all = [ fig1; fig2; fig3; fig4 ]

let of_id id = List.find_opt (fun f -> String.equal f.id id) all

let default_threads = [ 1; 2; 4; 8; 16; 24; 32 ]

type row = { threads : int; cells : (string * float) list }

type result = {
  spec : spec;
  mode : mode;
  unit_label : string;
  rows : row list;
}

type detailed_row = { d_threads : int; outcomes : (string * Harness.outcome) list }

(* Full per-manager outcomes (latency percentiles, abort breakdown);
   the throughput-only [run] below and the bench's JSON dump are both
   views of this sweep.  [backend] selects the runtime executing the
   workload (locator or TL2) — the managers, structures and access
   patterns are identical, so the sweep doubles as the head-to-head
   comparison of the two protocols. *)
let run_real_detailed ?(threads_list = default_threads) ?(seed = 42)
    ?(backend = Stm.Locator) ~duration_s (spec : spec) : detailed_row list =
  List.map
    (fun threads ->
      let outcomes =
        List.map
          (fun manager ->
            let cfg =
              {
                Harness.default with
                structure = spec.structure;
                manager;
                threads;
                duration_s;
                post_work = spec.post_work;
                seed;
                backend;
              }
            in
            (Cm_intf.name manager, Harness.run cfg))
          Tcm_core.Registry.paper_figures
      in
      { d_threads = threads; outcomes })
    threads_list

let run ?(threads_list = default_threads) ?(seed = 42) ?(backend = Stm.Locator)
    ?usec_per_tick ~mode (spec : spec) : result =
  match mode with
  | Real { duration_s } ->
      let rows =
        List.map
          (fun { d_threads; outcomes } ->
            {
              threads = d_threads;
              cells = List.map (fun (name, o) -> (name, o.Harness.throughput)) outcomes;
            })
          (run_real_detailed ~threads_list ~seed ~backend ~duration_s spec)
      in
      { spec; mode; unit_label = "committed txns/sec"; rows }
  | Sim { horizon } ->
      let model = Sim_load.model_of_structure spec.structure in
      let rows =
        List.map
          (fun threads ->
            let cells =
              List.map
                (fun manager ->
                  let o =
                    Sim_load.run ~horizon ~seed ~tail:spec.sim_tail ?usec_per_tick ~threads
                      ~manager model
                  in
                  (Cm_intf.name manager, o.Sim_load.throughput))
                Tcm_core.Registry.paper_figures
            in
            { threads; cells })
          threads_list
      in
      { spec; mode; unit_label = "committed txns / 1000 ticks"; rows }
