(** The QueueOnBlock manager (Scherer & Scott).

    Wait behind the enemy in FIFO spirit: block until it finishes.
    The paper points out this manager is prone to dependency cycles —
    our implementation bounds each wait with a generous timeout (after
    which the enemy is presumed cyclic or dead and is aborted), because
    an unbounded version can deadlock two real threads; {!Unbounded}
    is the paper's version, for the simulator to demonstrate the cycle
    safely. *)

open Tcm_stm

let name = "queueonblock"

let patience_usec = 2_000
let max_waits = 4

type t = unit

let create () = ()

include Cm_util.No_lifecycle

let resolve () ~me:_ ~other:_ ~attempts =
  if attempts >= max_waits then Decision.abort_other
  else Decision.block ~usec:patience_usec

module Unbounded = struct
  let name = "queueonblock-unbounded"

  type t = unit

  let create () = ()

  include Cm_util.No_lifecycle

  let resolve () ~me:_ ~other:_ ~attempts:_ = Decision.block_forever
end
