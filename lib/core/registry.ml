(** Name → contention-manager registry.

    All managers shipped with the library, looked up by the lowercase
    names used throughout the CLIs, benches and tests.  The live
    runtimes and the simulator run the same modules. *)

open Tcm_stm

let all : Cm_intf.factory list =
  [
    (module Greedy);
    (module Greedy_ft);
    (module Aggressive);
    (module Polite);
    (module Randomized);
    (module Timid);
    (module Killblocked);
    (module Kindergarten);
    (module Timestamp);
    (module Karma);
    (module Eruption);
    (module Polka);
    (module Queue_on_block);
    (module Sto_adaptive);
  ]

let names = List.map Cm_intf.name all

let find name =
  List.find_opt (fun m -> String.equal (Cm_intf.name m) (String.lowercase_ascii name)) all

let find_exn name =
  match find name with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown contention manager %S (available: %s)" name
           (String.concat ", " names))

(** [all] plus [Randomized_greedy], the Section 6 open-problem variant.
    The simulator's zoo sweeps run it; the live sweeps do not, since no
    live measurement argues for it yet. *)
let simulated : Cm_intf.factory list = all @ [ (module Randomized_greedy) ]

(** The five managers compared in the paper's Figures 1–4. *)
let paper_figures : Cm_intf.factory list =
  [
    (module Greedy);
    (module Karma);
    (module Eruption);
    (module Aggressive);
    (module Polite);
  ]
