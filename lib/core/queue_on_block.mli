(** The QueueOnBlock manager: FIFO-style waiting behind the enemy.  The
    paper notes it is prone to dependency cycles; this implementation
    bounds each wait ({!max_waits} waits of a generous timeout) so real
    threads cannot deadlock. *)

include Tcm_stm.Cm_intf.S

val patience_usec : int
val max_waits : int

(** The paper's unbounded FIFO wait, which livelocks on a dependency
    cycle.  Not in the registry: it can deadlock real threads, so only
    the simulator runs it (its horizon turns the cycle into a detected
    livelock). *)
module Unbounded : Tcm_stm.Cm_intf.S
