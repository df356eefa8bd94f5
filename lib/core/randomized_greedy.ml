(** Randomized-priority greedy — a stab at the paper's closing open
    problem ("can one use randomization to implement a contention
    manager that is proved to behave well with high probability?").

    Greedy's two rules, but priority is a random rank drawn once per
    logical transaction instead of its arrival timestamp.  The rank is
    published through the shared descriptor's [cm_stamp] (the
    decentralised "public field" of Section 2), so it survives aborts
    and every enemy compares the same two numbers.  Ties fall back to
    the timestamp, so every conflict still has a strict winner: the
    pending-commit property and Theorem 9 carry over.  What
    randomization buys is immunity to adversaries that exploit arrival
    order (the Section 4 chain), at the price of only probabilistic
    bounds on any one transaction's commit time. *)

open Tcm_stm

let name = "rand-greedy"

type t = { prng : Cm_util.Prng.t }

let create () = { prng = Cm_util.Prng.create () }

(* Below the [no_cm_stamp] sentinel, so a drawn rank is never mistaken
   for "no rank yet". *)
let rank_mask = max_int lsr 1

(* Draw once per logical transaction: retries keep the first rank. *)
let begin_attempt t me =
  if Txn.cm_stamp me = Txn.no_cm_stamp then
    Txn.set_cm_stamp me (Cm_util.Prng.int t.prng rank_mask)

let opened _ _ = ()
let committed _ _ = ()
let aborted _ _ = ()

let higher_rank me other =
  let rm = Txn.cm_stamp me and ro = Txn.cm_stamp other in
  rm < ro || (rm = ro && Txn.older_than me other)

let resolve _ ~me ~other ~attempts:_ =
  if higher_rank me other || Txn.is_waiting other then Decision.abort_other
  else Decision.block_forever
