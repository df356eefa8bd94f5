(** Public facade of the STM substrate: the one transaction runtime.

    Two protocols share one transaction lifecycle — begin, open,
    conflict, commit or abort, and restart under the retained
    timestamp.  This module defines that lifecycle once: {!create},
    {!atomically}, the attempt loop, the abort path and the retry API.
    The protocols are the obstruction-free DSTM/SXM locator ({!Runtime})
    and the lock-based TL2 ({!Tl2}), selected per runtime at {!create}
    time; each operation and each lifecycle hook is one [match] on the
    backend.  The structures and the workload harness are written
    against this facade only, so they run unmodified on either backend.

    Typical use:

    {[
      let cm = Tcm_core.Registry.find_exn "greedy" in
      let rt = Stm.create ~backend:Stm.Tl2_backend cm in
      let acct = Stm.Tvar.make 100 in
      Stm.atomically rt (fun tx ->
          let v = Stm.read tx acct in
          Stm.write tx acct (v + 1))
    ]}

    A transaction that commits on its first attempt allocates 15 minor
    words on either backend: its [Txn.shared] descriptor (6) and the
    attempt's [Txn.t] record (5) with its two atomics (4); each retry
    adds an attempt's 9.  The write-cost bench gates this.  A
    given [Tvar.t] must be used under a single backend: the two
    protocols publish values through different mechanisms and do not
    observe each other's ownership. *)

module Status = Status
module Splitmix = Splitmix
module Txid = Txid
module Txn = Txn
module Decision = Decision
module Cm_intf = Cm_intf
module Tvar = Tvar
module Runtime_intf = Runtime_intf
module Runtime = Runtime
module Tl2 = Tl2
open Runtime_intf

(* ------------------------------------------------------------------ *)
(* Backend selection                                                   *)
(* ------------------------------------------------------------------ *)

type backend = Runtime_intf.backend = Locator | Tl2_backend

let all_backends = [ Locator; Tl2_backend ]
let backend_name = function Locator -> "locator" | Tl2_backend -> "tl2"

let backend_of_name = function
  | "locator" -> Some Locator
  | "tl2" -> Some Tl2_backend
  | _ -> None

type runtime = Runtime_intf.t
type tx = Runtime_intf.tx

(* A runtime instantiates one manager and one context per domain, on
   the domain's first transaction.  Only a locator context takes the
   domain's locator pool, and with it a hazard slot. *)
let create ?(backend = Locator) cm =
  let stats = Tcm_metrics.Plane.group () in
  let dls =
    Domain.DLS.new_key (fun () ->
        let pool =
          match backend with Locator -> Tvar.domain_pool () | Tl2_backend -> Tvar.no_pool
        in
        let rec dom =
          {
            cm_state = Cm_intf.instantiate cm;
            probe =
              Tcm_obs.Probe.create ~stats ~runtime:"live" ~backend:(backend_name backend)
                (Cm_intf.name cm);
            pool;
            scratch;
            running = false;
          }
        and scratch =
          {
            backend;
            dom;
            txn = Txn.committed_sentinel;
            n_opens = 0;
            rv = 0;
            rs = [||];
            rs_len = 0;
            ws_var = [||];
            ws_val = [||];
            ws_len = 0;
            locked = [||];
            locked_len = 0;
          }
        in
        dom)
  in
  { cm; stats; dls }

let manager_name rt = Cm_intf.name rt.cm
let stats rt = Tcm_obs.Probe.stats rt.stats
let pp_stats = Tcm_obs.Probe.pp_stats

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let read tx v =
  match tx.backend with Locator -> Runtime.read tx v | Tl2_backend -> Tl2.read tx v

let write tx v x =
  match tx.backend with Locator -> Runtime.write tx v x | Tl2_backend -> Tl2.write tx v x

(* On the locator, acquires the variable exclusively; on TL2, enters
   it in the redo log at its validated value.  Use for
   read-modify-write accesses to avoid upgrade conflicts. *)
let read_for_write tx v =
  match tx.backend with
  | Locator -> Runtime.read_for_write tx v
  | Tl2_backend -> Tl2.read_for_write tx v

let modify tx v f = write tx v (f (read_for_write tx v))

(* User-requested abort-and-retry of the current attempt. *)
let retry_now tx =
  ignore (Txn.try_abort tx.txn);
  raise Abort_attempt

(* Blocking retry (Harris et al.'s [retry]): abort and re-run the
   transaction after a pause that grows geometrically, so the caller
   waits for the state it read to change. *)
let retry_wait tx =
  ignore (Txn.try_abort tx.txn);
  raise Retry_wait

let check tx cond = if not cond then retry_wait tx

(* ------------------------------------------------------------------ *)
(* The atomic block                                                    *)
(* ------------------------------------------------------------------ *)

(* The abort path of every attempt, whoever aborted it. *)
let finish_abort dom tx =
  ignore (Txn.try_abort tx.txn);
  Atomic.set tx.txn.Txn.waiting false;
  (match tx.backend with Locator -> Runtime.abort tx | Tl2_backend -> Tl2.abort tx);
  (* The dead attempt's work — everything it opened — is what the
     abort wastes, in the cost model's unit. *)
  Tcm_obs.Probe.abort dom.probe ~txid:(Txn.timestamp tx.txn) ~attempt:tx.txn.Txn.attempt_id
    ~tick:0 ~opens:tx.n_opens;
  let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
  M.aborted cm_st tx.txn;
  dom.running <- false

(* One attempt, then the next until one commits.  Top-level (not a
   closure inside [atomically]) so a transaction allocates nothing
   beyond its descriptors. *)
let rec attempt_loop : 'a. ctx -> (tx -> 'a) -> Txn.shared -> int -> 'a =
 fun dom f shared wait_round ->
  let tx = dom.scratch in
  let txn = Txn.new_attempt shared in
  tx.txn <- txn;
  tx.n_opens <- 0;
  (match tx.backend with Locator -> () | Tl2_backend -> Tl2.begin_attempt tx);
  dom.running <- true;
  let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
  M.begin_attempt cm_st txn;
  Tcm_obs.Probe.attempt_begin dom.probe ~txid:(Txn.timestamp txn) ~attempt:txn.Txn.attempt_id
    ~tick:0;
  match f tx with
  | v ->
      if match tx.backend with Locator -> Runtime.commit tx | Tl2_backend -> Tl2.commit tx
      then begin
        Tcm_obs.Probe.commit dom.probe ~txid:(Txn.timestamp txn) ~attempt:txn.Txn.attempt_id
          ~tick:0 ~opens:tx.n_opens;
        M.committed cm_st txn;
        dom.running <- false;
        v
      end
      else begin
        finish_abort dom tx;
        attempt_loop dom f shared 0
      end
  | exception Abort_attempt ->
      finish_abort dom tx;
      attempt_loop dom f shared 0
  | exception Retry_wait ->
      finish_abort dom tx;
      (* The caller is waiting for another transaction to change the
         state it checked. *)
      retry_pause wait_round;
      attempt_loop dom f shared (wait_round + 1)
  | exception e ->
      (* User exception: abort the transaction, propagate. *)
      finish_abort dom tx;
      raise e

(* Runs [f] to commit, retrying on aborts; [f] may run several times
   and so must be free of non-transactional side effects.  Nested
   calls on one domain flatten into the enclosing transaction. *)
let atomically rt f =
  let dom = Domain.DLS.get rt.dls in
  if dom.running then
    if Txn.is_active dom.scratch.txn then f dom.scratch
    else
      (* The enclosing attempt was aborted by an enemy but has not yet
         noticed.  Starting an unrelated top-level transaction here
         would alias the enclosing attempt's reused context, so abort
         the enclosing attempt instead — it is doomed anyway, and its
         restart re-runs this call. *)
      raise Abort_attempt
  else attempt_loop dom f (Txn.new_shared ()) 0
