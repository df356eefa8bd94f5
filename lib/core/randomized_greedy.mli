(** Randomized-priority greedy (the paper's closing open problem):
    greedy's rules over a random rank drawn once per logical
    transaction and published in [Txn.cm_stamp], ties broken by
    timestamp.  Keeps the pending-commit property (a strict total
    order) while defeating adversaries that exploit arrival order. *)

include Tcm_stm.Cm_intf.S
