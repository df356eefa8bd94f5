(** The TL2-style lock-based runtime backend.

    A {e progressive} (lock-based) STM in the style of Dice, Shalev
    and Shavit's TL2, sharing {!Runtime_intf} with the obstruction-free
    locator runtime so the two are swappable under every structure,
    workload and bench:

    - a {b global version clock} ([now]/[next_stamp] below);
    - a {b striped ownership-record table}: a fixed global array of
      orecs, each a version cell (stamp of the last committed write)
      plus an owner cell that doubles as the write lock
      ([Txn.committed_sentinel] = unlocked); variables hash to stripes
      by id, so the table adds no per-variable storage;
    - {b invisible reads} validated at read time: sample the orec
      version, read the value, re-check version and owner; a version
      beyond the attempt's read stamp [rv] triggers a read-set
      extension (revalidate everything at the current clock), exactly
      TinySTM's timebase extension;
    - {b lazy write buffering}: writes land in a flat redo log (erased
      [Obj.t] pairs, per the PR-4 allocation discipline: growable
      scratch arrays on a per-domain context, scrubbed at attempt
      end), invisible to other transactions until commit;
    - {b commit-time lock acquisition}: lock every written stripe
      (CAS on the owner cell), draw the write version [wv] from the
      clock, validate the read set against [rv], flip the attempt's
      status to Committed, write values back into the variables'
      permanently-linked locators, then release each stripe with its
      version advanced to [wv].

    {1 Contention management}

    The whole manager zoo ([Tcm_core.Registry.all], 14 managers) runs
    unmodified.  The manager is consulted wherever this backend can
    observe a conflict: at commit-time lock acquisition (the owner
    recorded in the orec is the enemy — both parties are live
    [Txn.t]s, so [resolve] gets real timestamps, priorities and waiting
    flags), and at read time when a stripe is locked by a live writer.
    Verdicts map as:

    - [Abort_other] → abort the enemy's status word, then {e steal}
      its lock (CAS owner enemy→me).  Stealing is safe because an
      aborted attempt never writes values back: write-back is gated by
      the owner's own Active→Committed CAS, which is mutually
      exclusive with our Active→Aborted CAS on the same cell.
    - [Abort_self] → release the locks acquired so far and restart.
    - [Block] → the shared bounded spin-then-retry ladder
      ({!Runtime_intf.block_on}): spin, yield, sleep geometrically;
      return when the enemy is decided or starts waiting itself, then
      re-consult.  Greedy's Rule 1 dynamics (abort a waiting enemy)
      carry over unchanged because the waiting flag lives on [Txn.t].
    - [Backoff] → sleep, capped by the configuration, re-consult.

    {1 Progress and consistency caveats}

    This backend is {e progressive}, not obstruction-free: a writer
    that stalls between lock acquisition and release blocks every
    later writer of those stripes (managers with timeouts — greedy-ft,
    killblocked — recover by aborting it and stealing, which is why
    lock-steal is part of the verdict mapping, not an optimisation).
    Read postvalidation brackets a plain value load between two atomic
    loads; the publication argument needs load-load and store-store
    ordering (x86-TSO gives both; on weakly-ordered targets the value
    load could theoretically be satisfied late).

    A given [Tvar.t] must be used under a single backend: this backend
    stores committed values through the variable's permanently-linked
    committed-sentinel locator and never installs locators, so locator
    writers and TL2 writers sharing one variable would not observe
    each other's ownership. *)

exception Abort_attempt = Runtime_intf.Abort_attempt
exception Too_many_attempts = Runtime_intf.Too_many_attempts
exception Retry_wait = Runtime_intf.Retry_wait

type config = Runtime_intf.config = {
  max_attempts : int option;
  block_poll_usec : int;
  backoff_cap_usec : int;
}

let default_config = Runtime_intf.default_config

type stats_snapshot = Runtime_intf.stats_snapshot

let backend_name = "tl2"

(* ------------------------------------------------------------------ *)
(* The version clock and the ownership-record table                    *)
(* ------------------------------------------------------------------ *)

(* The global version clock: an attempt samples it for its read stamp
   [rv], and a writing commit draws its write stamp [wv] from it. *)
let clock = Atomic.make 1

let now () = Atomic.get clock
let next_stamp () = 1 + Atomic.fetch_and_add clock 1

(* [o_owner] doubles as the write lock: [no_owner] (the committed
   sentinel, compared physically) means unlocked; any other value is
   the attempt holding the stripe.  [o_version] is the stamp of the
   last committed write, written only by the lock holder and read by
   validators.  Locking CASes the owner cell directly — no separate
   lock word — so a contender always reads a coherent (owner, status)
   pair: the owner it sees is the very attempt whose status word
   arbitration goes through. *)
type orec = { o_version : int Atomic.t; o_owner : Txn.t Atomic.t }

let no_owner = Txn.committed_sentinel

let orec_bits = 12
let n_orecs = 1 lsl orec_bits
let orec_mask = n_orecs - 1

(* One global table, shared by every TL2 runtime in the process (the
   classic address-hashed lock table).  The atomics are allocated with
   dead padding between consecutive orecs so stripes land on separate
   cache lines in the minor heap (best effort: a compacting major GC
   may repack them; the stripes are contended only under write
   conflicts, where the protocol cost dominates). *)
let orecs : orec array =
  Array.init n_orecs (fun _ ->
      let o = { o_version = Atomic.make 0; o_owner = Atomic.make no_owner } in
      ignore (Sys.opaque_identity (Array.make Tcm_metrics.Plane.line_words 0));
      o)

(* Stripe hash: ids are sequential, so multiply by an odd constant
   (golden-ratio) to decorrelate neighbouring variables — e.g. the
   nodes of one structure — before masking.  The stripe index is also
   the hot-key identity this backend reports to [Tcm_obs.Hot]. *)
let stripe_of_id id = (id * 0x9E3779B1) land orec_mask
let orec_for_id id = orecs.(stripe_of_id id)

let dummy_orec = { o_version = Atomic.make 0; o_owner = Atomic.make no_owner }

(* ------------------------------------------------------------------ *)
(* Runtime and per-attempt context                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  cm : Cm_intf.factory;
  stats : Tcm_metrics.Plane.group;  (** One slot per domain that used this runtime. *)
  dls : per_domain Domain.DLS.key;
}

and per_domain = {
  cm_state : Cm_intf.packed;
  probe : Tcm_obs.Probe.t;
      (** This domain's lifecycle handle; conflict keys are orec
          stripe indices. *)
  scratch : tx;
      (** The domain's reusable transaction context; reset (by lengths
          and field stores, never reallocation) at each attempt start. *)
  mutable running : bool;
}

and tx = {
  cfg : config;
  dom : per_domain;
  mutable txn : Txn.t;  (** Current attempt; fresh per attempt. *)
  mutable rv : int;
      (** Read version: the whole read set is known valid at this
          clock value; advanced by successful extensions. *)
  mutable rs : orec array;  (** Read set: stripes sampled by reads. *)
  mutable rs_len : int;
  mutable ws_var : Obj.t array;  (** Redo log: written variables, erased. *)
  mutable ws_val : Obj.t array;  (** Redo log: buffered values, erased. *)
  mutable ws_len : int;
  mutable locked : orec array;  (** Stripes this attempt holds (commit). *)
  mutable locked_len : int;
  mutable n_opens : int;  (** Objects opened (reads and writes). *)
}

let empty_orecs : orec array = [||]
let empty_objs : Obj.t array = [||]

let create ?(config = default_config) cm =
  let stats = Tcm_metrics.Plane.group () in
  let dls =
    Domain.DLS.new_key (fun () ->
        let rec dom =
          {
            cm_state = Cm_intf.instantiate cm;
            probe =
              Tcm_obs.Probe.create ~stats ~runtime:"live" ~backend:backend_name
                (Cm_intf.name cm);
            scratch;
            running = false;
          }
        and scratch =
          {
            cfg = config;
            dom;
            txn = Txn.committed_sentinel;
            rv = 0;
            rs = empty_orecs;
            rs_len = 0;
            ws_var = empty_objs;
            ws_val = empty_objs;
            ws_len = 0;
            locked = empty_orecs;
            locked_len = 0;
            n_opens = 0;
          }
        in
        dom)
  in
  { config; cm; stats; dls }

let manager_name t = Cm_intf.name t.cm
let stats t = Tcm_obs.Probe.stats t.stats

(* ------------------------------------------------------------------ *)
(* Attempt-local helpers                                               *)
(* ------------------------------------------------------------------ *)

let check_self tx = Runtime_intf.check_active tx.txn
let consult = Runtime_intf.consult

(* How this backend executes each verdict; the registry duel test
   asserts the mapping stays total and the verdicts themselves agree
   with the locator backend's adapter. *)
type action = Steal_lock | Release_and_abort | Spin_then_retry | Backoff_then_retry

let action_of_decision = function
  | Decision.Abort_other -> Steal_lock
  | Decision.Abort_self -> Release_and_abort
  | Decision.Block _ -> Spin_then_retry
  | Decision.Backoff _ -> Backoff_then_retry

(* The shared verdict execution, for a conflict over orec stripe
   [key]; the lock steal happens at the caller. *)
let resolve_conflict tx ~other ~attempts ~key =
  Runtime_intf.resolve_conflict ~cm:tx.dom.cm_state ~probe:tx.dom.probe ~config:tx.cfg
    ~me:tx.txn ~other ~attempts ~key

let cm_opened tx =
  tx.n_opens <- tx.n_opens + 1;
  Txn.record_open tx.txn;
  let (Cm_intf.Packed ((module M), st)) = tx.dom.cm_state in
  M.opened st tx.txn

(* ------------------------------------------------------------------ *)
(* Scratch-log plumbing                                                *)
(* ------------------------------------------------------------------ *)

let obj_dummy = Obj.repr 0

let push_rs tx o =
  let cap = Array.length tx.rs in
  if tx.rs_len = cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) dummy_orec in
    Array.blit tx.rs 0 a 0 cap;
    tx.rs <- a
  end;
  tx.rs.(tx.rs_len) <- o;
  tx.rs_len <- tx.rs_len + 1

let push_ws tx var value =
  let cap = Array.length tx.ws_var in
  if tx.ws_len = cap then begin
    let nv = Array.make (if cap = 0 then 8 else 2 * cap) obj_dummy in
    let nl = Array.make (if cap = 0 then 8 else 2 * cap) obj_dummy in
    Array.blit tx.ws_var 0 nv 0 cap;
    Array.blit tx.ws_val 0 nl 0 cap;
    tx.ws_var <- nv;
    tx.ws_val <- nl
  end;
  tx.ws_var.(tx.ws_len) <- var;
  tx.ws_val.(tx.ws_len) <- value;
  tx.ws_len <- tx.ws_len + 1

let push_locked tx o =
  let cap = Array.length tx.locked in
  if tx.locked_len = cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) dummy_orec in
    Array.blit tx.locked 0 a 0 cap;
    tx.locked <- a
  end;
  tx.locked.(tx.locked_len) <- o;
  tx.locked_len <- tx.locked_len + 1

(* Redo-log lookup, newest entry first (repeat writes overwrite in
   place, so the scan is only for distinct-variable counts typical of
   the structures here: single digits). *)
let ws_find tx (k : Obj.t) =
  let i = ref (tx.ws_len - 1) in
  while !i >= 0 && tx.ws_var.(!i) != k do
    decr i
  done;
  !i

(* Scratch arrays above this capacity are replaced rather than kept: a
   single huge transaction must not pin a huge log on the domain
   forever. *)
let log_retain_cap = 1024

(* Scrub the scratch logs when an attempt ends: the redo log holds
   user variables and values, which must not stay reachable from the
   domain's scratch context after the transaction finished.  The read
   set holds only global orecs, so resetting its length suffices. *)
let clear_logs tx =
  if Array.length tx.rs > log_retain_cap then tx.rs <- empty_orecs;
  tx.rs_len <- 0;
  if Array.length tx.ws_var > log_retain_cap then begin
    tx.ws_var <- empty_objs;
    tx.ws_val <- empty_objs
  end
  else if tx.ws_len > 0 then begin
    Array.fill tx.ws_var 0 tx.ws_len obj_dummy;
    Array.fill tx.ws_val 0 tx.ws_len obj_dummy
  end;
  tx.ws_len <- 0;
  if Array.length tx.locked > log_retain_cap then tx.locked <- empty_orecs;
  tx.locked_len <- 0

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(* The committed value lives in the variable's permanently-linked
   committed-sentinel locator; this backend never swaps the locator,
   so the load is one indirection with no generation protocol (the
   locator pool never sees these locators). *)
let[@inline] committed_value (tvar : 'a Tvar.t) : 'a = (Atomic.get tvar.Tvar.loc).Tvar.new_v

(* Extend the read set to the current clock: every sampled stripe must
   still be unlocked (or locked by a decided-dead attempt, which never
   writes back) with a version at or below the {e old} read stamp —
   i.e. nothing we read has been overwritten — after which the whole
   set is valid at the clock value sampled before the scan.  A locked
   stripe fails the extension even if its version has not moved: the
   holder may already have drawn a write version below our new [rv]. *)
let extend tx =
  let g = now () in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < tx.rs_len do
    let o = tx.rs.(!i) in
    let owner = Atomic.get o.o_owner in
    if
      Atomic.get o.o_version > tx.rv
      || (owner != no_owner && not (Txn.is_aborted owner))
    then ok := false;
    incr i
  done;
  if not !ok then begin
    ignore (Txn.try_abort tx.txn);
    raise Abort_attempt
  end;
  tx.rv <- g

let rec read_fresh : 'a. tx -> 'a Tvar.t -> orec -> int -> 'a =
  fun tx tvar o attempts ->
   check_self tx;
   let v1 = Atomic.get o.o_version in
   let owner = Atomic.get o.o_owner in
   if owner != no_owner && not (Txn.is_aborted owner) then
     if Txn.is_active owner then begin
       (* Locked by a live writer: a read-write conflict, resolved
          through the manager exactly like a write-write one. *)
       resolve_conflict tx ~other:owner ~attempts ~key:(stripe_of_id tvar.Tvar.id);
       read_fresh tx tvar o (attempts + 1)
     end
     else begin
       (* Committed holder mid-write-back; it releases in nanoseconds. *)
       Domain.cpu_relax ();
       read_fresh tx tvar o attempts
     end
   else begin
     let v = committed_value tvar in
     let v2 = Atomic.get o.o_version in
     let owner2 = Atomic.get o.o_owner in
     if v2 <> v1 || owner2 != owner then read_fresh tx tvar o attempts
     else if v1 > tx.rv then begin
       (* Written after our read stamp: extend the read set to the
          current clock, which re-checks every earlier read, then
          re-read under the new stamp. *)
       extend tx;
       read_fresh tx tvar o attempts
     end
     else begin
       push_rs tx o;
       cm_opened tx;
       v
     end
   end

let read : 'a. tx -> 'a Tvar.t -> 'a =
 fun tx tvar ->
  let i = ws_find tx (Obj.repr tvar) in
  if i >= 0 then Obj.obj tx.ws_val.(i) else read_fresh tx tvar (orec_for_id tvar.Tvar.id) 0

(* ------------------------------------------------------------------ *)
(* Writes (redo-log buffering)                                         *)
(* ------------------------------------------------------------------ *)

let write : 'a. tx -> 'a Tvar.t -> 'a -> unit =
 fun tx tvar v ->
  check_self tx;
  let k = Obj.repr tvar in
  let i = ws_find tx k in
  if i >= 0 then tx.ws_val.(i) <- Obj.repr v
  else begin
    push_ws tx k (Obj.repr v);
    cm_opened tx;
    Tcm_trace.Sink.acquired ~txid:(Txn.timestamp tx.txn) ~obj:tvar.Tvar.id ~write:true
      ~tick:0
  end

(* Read-modify-write: the read goes through the validated read path
   (so the value is pinned by commit-time validation of its stripe)
   and the variable joins the redo log at its current value. *)
let read_for_write : 'a. tx -> 'a Tvar.t -> 'a =
 fun tx tvar ->
  let i = ws_find tx (Obj.repr tvar) in
  if i >= 0 then Obj.obj tx.ws_val.(i)
  else begin
    let v = read_fresh tx tvar (orec_for_id tvar.Tvar.id) 0 in
    push_ws tx (Obj.repr tvar) (Obj.repr v);
    Tcm_trace.Sink.acquired ~txid:(Txn.timestamp tx.txn) ~obj:tvar.Tvar.id ~write:true
      ~tick:0;
    v
  end

let modify tx tvar f = write tx tvar (f (read_for_write tx tvar))

let retry_now tx : 'a =
  ignore (Txn.try_abort tx.txn);
  raise Abort_attempt

let retry_wait tx : 'a =
  ignore (Txn.try_abort tx.txn);
  raise Retry_wait

let check tx cond = if not cond then retry_wait tx

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

(* Release every stripe this attempt holds without writing back (the
   abort path).  CAS rather than plain store: an enemy that aborted us
   may already have stolen a stripe, and the release must not knock
   out {e its} ownership. *)
let release_locked tx =
  for i = 0 to tx.locked_len - 1 do
    let o = tx.locked.(i) in
    ignore (Atomic.compare_and_set o.o_owner tx.txn no_owner)
  done;
  tx.locked_len <- 0

(* Acquire one stripe.  The owner cell is the lock: an unlocked CAS
   claims it; an aborted holder is dispossessed by CAS (lock steal —
   safe, see the module comment); a committed holder is finishing its
   write-back, over in nanoseconds; a live holder is a conflict for
   the manager. *)
let rec acquire tx o ~stripe ~attempts ~round =
  check_self tx;
  let owner = Atomic.get o.o_owner in
  if owner == tx.txn then () (* stripe collision with an earlier write *)
  else if owner == no_owner then begin
    if Atomic.compare_and_set o.o_owner no_owner tx.txn then push_locked tx o
    else acquire tx o ~stripe ~attempts ~round
  end
  else
    match Txn.status owner with
    | Status.Aborted ->
        if Atomic.compare_and_set o.o_owner owner tx.txn then push_locked tx o
        else acquire tx o ~stripe ~attempts ~round
    | Status.Committed ->
        Runtime_intf.wait_step ~round ~cap_usec:tx.cfg.block_poll_usec;
        acquire tx o ~stripe ~attempts ~round:(round + 1)
    | Status.Active ->
        resolve_conflict tx ~other:owner ~attempts ~key:stripe;
        acquire tx o ~stripe ~attempts:(attempts + 1) ~round

(* Commit-time read validation: every sampled stripe unlocked (or
   held by us, or by a decided-dead attempt) with its version at or
   below [rv].  Skipped when [wv = rv + 1]: no transaction committed
   since our read stamp, so nothing can have been overwritten. *)
let validate_reads tx =
  for i = 0 to tx.rs_len - 1 do
    let o = tx.rs.(i) in
    let owner = Atomic.get o.o_owner in
    if
      Atomic.get o.o_version > tx.rv
      || (owner != no_owner && owner != tx.txn && not (Txn.is_aborted owner))
    then begin
      ignore (Txn.try_abort tx.txn);
      raise Abort_attempt
    end
  done

let lock_and_validate tx =
  for i = 0 to tx.ws_len - 1 do
    let tv : Obj.t Tvar.t = Obj.obj tx.ws_var.(i) in
    let stripe = stripe_of_id tv.Tvar.id in
    acquire tx orecs.(stripe) ~stripe ~attempts:0 ~round:0
  done;
  let wv = next_stamp () in
  if wv > tx.rv + 1 then validate_reads tx;
  wv

let commit tx =
  if tx.ws_len = 0 then
    (* Read-only fast path: every read was validated against [rv] at
       read time, so the read set is a consistent snapshot already —
       no locks, no validation, no clock tick, no status CAS. *)
    true
  else
    match lock_and_validate tx with
    | exception Abort_attempt ->
        release_locked tx;
        false
    | wv ->
        if Txn.try_commit tx.txn then begin
          (* Write back, then publish: each stripe's version moves to
             [wv] before its lock is dropped, so a reader that finds
             the stripe unlocked either sees the old version (and the
             old value: our value store is not yet visible to it,
             store-store ordering) or the new version (beyond its read
             stamp, forcing extension).  Plain stores suffice for the
             release: no thief can dispossess a Committed holder. *)
          for i = 0 to tx.ws_len - 1 do
            let tv : Obj.t Tvar.t = Obj.obj tx.ws_var.(i) in
            let loc = Atomic.get tv.Tvar.loc in
            loc.Tvar.new_v <- tx.ws_val.(i);
            loc.Tvar.old_v <- tx.ws_val.(i)
          done;
          for i = 0 to tx.locked_len - 1 do
            let o = tx.locked.(i) in
            Atomic.set o.o_version wv;
            Atomic.set o.o_owner no_owner
          done;
          tx.locked_len <- 0;
          true
        end
        else begin
          release_locked tx;
          false
        end

(* ------------------------------------------------------------------ *)
(* The atomic block                                                    *)
(* ------------------------------------------------------------------ *)

let finish_abort dom tx =
  ignore (Txn.try_abort tx.txn);
  Atomic.set tx.txn.Txn.waiting false;
  (* Defensive: locks are normally released inside [commit]; an abort
     raised while any are held must not leave stripes locked forever. *)
  if tx.locked_len > 0 then release_locked tx;
  clear_logs tx;
  (* The dead attempt's work — everything it opened — is what the
     abort wastes, in the cost model's unit. *)
  Tcm_obs.Probe.abort dom.probe ~txid:(Txn.timestamp tx.txn) ~attempt:tx.txn.Txn.attempt_id
    ~tick:0 ~opens:tx.n_opens;
  let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
  M.aborted cm_st tx.txn;
  dom.running <- false

let rec attempt_loop : 'a. t -> per_domain -> tx -> (tx -> 'a) -> Txn.shared -> int -> int -> 'a
    =
  fun rt dom tx f shared wait_round n ->
   (match rt.config.max_attempts with
   | Some m when n > m -> raise (Too_many_attempts n)
   | _ -> ());
   let txn = Txn.new_attempt shared in
   tx.txn <- txn;
   tx.rv <- now ();
   tx.rs_len <- 0;
   tx.ws_len <- 0;
   tx.locked_len <- 0;
   tx.n_opens <- 0;
   dom.running <- true;
   let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
   M.begin_attempt cm_st txn;
   Tcm_obs.Probe.attempt_begin dom.probe ~txid:(Txn.timestamp txn) ~attempt:txn.Txn.attempt_id
     ~tick:0;
   match f tx with
   | v ->
       if commit tx then begin
         clear_logs tx;
         Tcm_obs.Probe.commit dom.probe ~txid:(Txn.timestamp txn)
           ~attempt:txn.Txn.attempt_id ~tick:0 ~opens:tx.n_opens;
         M.committed cm_st txn;
         dom.running <- false;
         v
       end
       else begin
         finish_abort dom tx;
         attempt_loop rt dom tx f shared 0 (n + 1)
       end
   | exception Abort_attempt ->
       finish_abort dom tx;
       attempt_loop rt dom tx f shared 0 (n + 1)
   | exception Retry_wait ->
       finish_abort dom tx;
       Runtime_intf.retry_pause rt.config wait_round;
       attempt_loop rt dom tx f shared (wait_round + 1) (n + 1)
   | exception e ->
       finish_abort dom tx;
       raise e

let atomically rt f =
  let dom = Domain.DLS.get rt.dls in
  if dom.running then
    if Txn.is_active dom.scratch.txn then
      (* Nested atomically: flatten into the enclosing transaction. *)
      f dom.scratch
    else
      (* The enclosing attempt was aborted by an enemy but has not yet
         noticed; abort it rather than alias its reused context. *)
      raise Abort_attempt
  else attempt_loop rt dom dom.scratch f (Txn.new_shared ()) 0 1

let current_txn rt =
  let dom = Domain.DLS.get rt.dls in
  if dom.running then Some dom.scratch.txn else None

(* ------------------------------------------------------------------ *)
(* Test hooks                                                          *)
(* ------------------------------------------------------------------ *)

module Internal = struct
  let orec_version tvar = Atomic.get (orec_for_id (Tvar.id tvar)).o_version

  let lock_for_test tvar (txn : Txn.t) =
    let o = orec_for_id (Tvar.id tvar) in
    let rec go () =
      let cur = Atomic.get o.o_owner in
      if
        not
          ((cur == no_owner || Txn.is_aborted cur)
          && Atomic.compare_and_set o.o_owner cur txn)
      then begin
        Domain.cpu_relax ();
        go ()
      end
    in
    go ()

  let unlock_for_test tvar (txn : Txn.t) =
    let o = orec_for_id (Tvar.id tvar) in
    ignore (Atomic.compare_and_set o.o_owner txn no_owner)
end
