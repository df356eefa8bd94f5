(** STO-style adaptive manager (Herman et al., "Type-aware transactions
    for faster concurrent code", EuroSys 2016 — the [ContentionManager]
    in STO's runtime).

    A transaction is {e timid} while young: on any conflict it aborts
    itself, never impeding an enemy, on the theory that little work is
    lost.  Once it has opened {!ts_threshold} objects in the current
    attempt, it acquires a stamp from a global counter — publishing it
    through the shared descriptor's [cm_stamp] field — and starts to
    {e fight}: it aborts enemies that are younger (larger stamp, which
    includes every still-timid enemy, whose stamp is the [max_int]
    sentinel) or already aborted, and otherwise waits out a randomized
    bounded interval proportional to its own run of successive aborts
    (STO's [SUCC_ABORTS_MAX] / [WAIT_CYCLES_MULTIPLICATOR] scheme)
    before consulting again, giving up the spot after
    {!max_fight_rounds} rounds.

    In the paper's terms this sits between Timid and Greedy: timid
    conflicts are resolved at minimum wasted-work price, while
    long-running transactions get Greedy-style seniority — exactly the
    priced trade-off the EXPERIMENTS ranking probes.

    All state is slab-resident plain ints (two counters plus the
    PRNG's two cells in one {!Tcm_metrics.Plane} slot); [resolve] and
    the lifecycle hooks allocate nothing. *)

open Tcm_stm

let name = "sto-adaptive"

let ts_threshold = 10
(** Opens in the current attempt before the transaction buys a stamp
    and starts fighting. *)

let succ_aborts_max = 10
(** Cap on the successive-abort count that scales the fight-phase
    wait (STO's [SUCC_ABORTS_MAX]). *)

let wait_usec_per_abort = 8
(** Wait scale: each successive abort adds up to this many us to the
    randomized fight-phase wait (STO's [WAIT_CYCLES_MULTIPLICATOR],
    rescaled from cycles to microseconds). *)

let max_fight_rounds = 32
(** Fight rounds for one spot before conceding with [Abort_self] —
    bounds the cycle-wait so two stamped transactions cannot spin on
    each other forever. *)

(* The global stamp counter.  Monotone; a smaller stamp = earlier
   threshold crossing = higher priority.  Starts at 1 so stamp 0 is
   never handed out ([Txn.committed_sentinel] carries cm_stamp 0 and
   must read as infinitely old). *)
let next_stamp = Atomic.make 1

(* Slot layout *)
let ix_opens = 0 (* opens in the current attempt *)
let ix_succ_aborts = 1 (* successive aborts of the logical txn *)
let ix_prng = 2

type t = { slot : Tcm_metrics.Plane.slot; prng : Cm_util.Prng.t }

let create () =
  let slot = Tcm_metrics.Plane.acquire (ix_prng + Cm_util.Prng.state_words) in
  { slot; prng = Cm_util.Prng.in_slot slot ix_prng }

let succ_aborts t = Tcm_metrics.Plane.get t.slot ix_succ_aborts
(** Exposed for the phase-transition and wait-cap tests. *)

(* STO's start(): every attempt begins timid.  The successive-abort
   counter is deliberately NOT touched — it tracks the logical
   transaction across attempts. *)
let begin_attempt t me =
  Tcm_metrics.Plane.set t.slot ix_opens 0;
  Txn.set_cm_stamp me Txn.no_cm_stamp

let opened t me =
  let opens = Tcm_metrics.Plane.get t.slot ix_opens + 1 in
  Tcm_metrics.Plane.set t.slot ix_opens opens;
  if opens = ts_threshold && Txn.cm_stamp me = Txn.no_cm_stamp then
    Txn.set_cm_stamp me (Atomic.fetch_and_add next_stamp 1)

let committed t _ = Tcm_metrics.Plane.set t.slot ix_succ_aborts 0

let aborted t _ =
  Tcm_metrics.Plane.set t.slot ix_succ_aborts
    (min (succ_aborts t + 1) succ_aborts_max)

let resolve t ~me ~other ~attempts =
  let my_stamp = Txn.cm_stamp me in
  if my_stamp = Txn.no_cm_stamp then
    (* Timid phase: concede immediately. *)
    Decision.abort_self
  else if Txn.is_aborted other || Txn.cm_stamp other > my_stamp then
    (* Fight: the enemy is dead already, or younger — every timid
       enemy reads as youngest of all via the max_int sentinel. *)
    Decision.abort_other
  else if attempts >= max_fight_rounds then
    (* Seniority lost and the bounded cycle-wait is exhausted. *)
    Decision.abort_self
  else
    (* Randomized bounded wait keyed to our successive-abort run:
       the more we have been losing, the longer we are willing to
       stand aside before asking again. *)
    Decision.backoff
      ~usec:(1 + Cm_util.Prng.int t.prng ((succ_aborts t + 1) * wait_usec_per_abort))
