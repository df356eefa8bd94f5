(** The Kindergarten manager (Scherer & Scott): "taking turns".

    A transaction maintains the set of enemies in whose favour it has
    already backed off.  The first time it meets a given enemy it
    politely backs off (a bounded number of rounds); if the same enemy
    blocks it again, it is the enemy's turn to be aborted. *)

open Tcm_stm

let name = "kindergarten"

let rounds_per_turn = 3

let deferred_cap = 64

type t = {
  deferred_to : Cm_util.Table.t;  (* enemy timestamps we yielded to *)
  prng : Cm_util.Prng.t;
}

(* Table and prng packed into one plane slot: the grudge set first,
   then the two prng cells. *)
let create () =
  let words = Cm_util.Table.words ~cap:deferred_cap + Cm_util.Prng.state_words in
  let slot = Tcm_metrics.Plane.acquire words in
  {
    deferred_to = Cm_util.Table.in_slot slot ~ix:0 ~cap:deferred_cap;
    prng = Cm_util.Prng.in_slot slot (Cm_util.Table.words ~cap:deferred_cap);
  }

let begin_attempt _ _ = ()
let opened _ _ = ()
let aborted _ _ = ()

(* Forget old grudges when we finally commit: a generation bump, where
   [Hashtbl.reset] used to rebuild the bucket array on every commit. *)
let committed t _ = Cm_util.Table.reset t.deferred_to

let resolve t ~me:_ ~other ~attempts =
  let key = Txn.timestamp other in
  if Cm_util.Table.mem t.deferred_to key then Decision.abort_other
  else if attempts >= rounds_per_turn then begin
    (* We gave this enemy its turn; remember that and abort it next
       time, but let it win this round by restarting ourselves. *)
    Cm_util.Table.put t.deferred_to key 1;
    Decision.abort_self
  end
  else Decision.backoff ~usec:(Cm_util.exp_backoff ~base:24 t.prng attempts)
