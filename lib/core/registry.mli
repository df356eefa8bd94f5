(** Name-indexed registry of all shipped contention managers. *)

open Tcm_stm

val all : Cm_intf.factory list
val names : string list

val find : string -> Cm_intf.factory option
(** Case-insensitive lookup. *)

val find_exn : string -> Cm_intf.factory
(** @raise Invalid_argument on unknown names, listing the options. *)

val simulated : Cm_intf.factory list
(** [all] plus {!Randomized_greedy}: the line-up of the simulator's
    zoo sweeps.  [find] does not see the extra entry. *)

val paper_figures : Cm_intf.factory list
(** The five managers compared in the paper's Figures 1–4:
    greedy, karma, eruption, aggressive, backoff. *)
