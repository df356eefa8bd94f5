(** Public facade of the STM substrate.

    Two interchangeable runtime backends sit behind this module — the
    obstruction-free DSTM/SXM locator runtime ({!Runtime}) and the
    lock-based TL2-style runtime ({!Tl2}), both implementing
    {!Runtime_intf.S} — selected per runtime at {!create} time.  The
    structures and the workload harness are written against this
    facade only, so they run unmodified on either backend.

    Typical use:

    {[
      let cm = Tcm_core.Registry.find_exn "greedy" in
      let rt = Stm.create ~backend:Stm.Tl2_backend cm in
      let acct = Stm.Tvar.make 100 in
      Stm.atomically rt (fun tx ->
          let v = Stm.read tx acct in
          Stm.write tx acct (v + 1))
    ]}

    Dispatch is one variant match per operation; the per-attempt
    wrapper closure plus [tx] variant cost a handful of minor words,
    within the write-path allocation budget (the write-cost bench
    gates this).  A given [Tvar.t] must be used under a single
    backend: the two protocols publish values through different
    mechanisms and do not observe each other's ownership. *)

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

type config = Runtime.config = {
  max_attempts : int option;
  block_poll_usec : int;
  backoff_cap_usec : int;
}

let default_config = Runtime.default_config

(* ------------------------------------------------------------------ *)
(* Backend selection                                                   *)
(* ------------------------------------------------------------------ *)

type backend = Locator | Tl2_backend

let all_backends = [ Locator; Tl2_backend ]

let backend_name = function
  | Locator -> Runtime.backend_name
  | Tl2_backend -> Tl2.backend_name

let backend_of_name = function
  | "locator" -> Some Locator
  | "tl2" -> Some Tl2_backend
  | _ -> None

type runtime = Locator_rt of Runtime.t | Tl2_rt of Tl2.t
type tx = Locator_tx of Runtime.tx | Tl2_tx of Tl2.tx

let create ?config ?(backend = Locator) cm =
  match backend with
  | Locator -> Locator_rt (Runtime.create ?config cm)
  | Tl2_backend -> Tl2_rt (Tl2.create ?config cm)

let backend_of = function Locator_rt _ -> Locator | Tl2_rt _ -> Tl2_backend

let atomically rt f =
  match rt with
  | Locator_rt r -> Runtime.atomically r (fun t -> f (Locator_tx t))
  | Tl2_rt r -> Tl2.atomically r (fun t -> f (Tl2_tx t))

let read tx v =
  match tx with Locator_tx t -> Runtime.read t v | Tl2_tx t -> Tl2.read t v

let write tx v x =
  match tx with Locator_tx t -> Runtime.write t v x | Tl2_tx t -> Tl2.write t v x

let read_for_write tx v =
  match tx with
  | Locator_tx t -> Runtime.read_for_write t v
  | Tl2_tx t -> Tl2.read_for_write t v

let modify tx v f =
  match tx with Locator_tx t -> Runtime.modify t v f | Tl2_tx t -> Tl2.modify t v f

let retry_now tx =
  match tx with Locator_tx t -> Runtime.retry_now t | Tl2_tx t -> Tl2.retry_now t

let retry_wait tx =
  match tx with Locator_tx t -> Runtime.retry_wait t | Tl2_tx t -> Tl2.retry_wait t

let check tx cond =
  match tx with Locator_tx t -> Runtime.check t cond | Tl2_tx t -> Tl2.check t cond

let stats = function Locator_rt r -> Runtime.stats r | Tl2_rt r -> Tl2.stats r

let manager_name = function
  | Locator_rt r -> Runtime.manager_name r
  | Tl2_rt r -> Tl2.manager_name r

let current_txn = function
  | Locator_rt r -> Runtime.current_txn r
  | Tl2_rt r -> Tl2.current_txn r
