(** The STM execution engine.

    [atomically rt f] runs [f] as a transaction under the runtime's
    contention manager, retrying on abort until the commit CAS
    succeeds.  Conflicts are detected eagerly, at access time, exactly
    as in DSTM/SXM: the acquiring transaction consults its local
    contention manager and either aborts the enemy or stands back.

    Reads are {e visible}: a reader registers on the variable, and a
    writer resolves each active reader through the contention manager
    after acquiring the locator.  Every read-write conflict therefore
    goes through the manager (the paper's model), and executions are
    serializable without read validation: a commit is one status CAS.
    Clock-validated invisible reads are the {!Tl2} backend's.

    {1 Allocation discipline}

    The steady-state hot paths allocate nothing (see DESIGN.md,
    "Allocation discipline"):

    - locators come from the per-domain pool in [Tvar], refilled in
      place and recycled when displaced;
    - the transaction context [tx] is a per-domain scratch record,
      reused across attempts and logical transactions;
    - per logical transaction the runtime allocates only the [shared]
      descriptor, and per attempt only the [Txn.t] attempt record with
      its two atomics — those must stay fresh, because enemies abort a
      specific attempt by CAS-ing {e its} status word, and a reused
      status cell could receive an abort meant for a dead attempt.

    A read-only commit still takes the status CAS: registered
    reader-slot entries are reclaimed by writers {e only} when the
    registrant's status is decided, so a forever-Active reader
    descriptor would pin its slots and stall writers. *)

let backend_name = "locator"

(* The control-flow exceptions, configuration and statistics type
   are shared with the TL2 backend through [Runtime_intf]; the
   re-export equations below keep existing [Runtime.]-qualified
   callers compiling unchanged. *)

exception Abort_attempt = Runtime_intf.Abort_attempt
exception Too_many_attempts = Runtime_intf.Too_many_attempts
exception Retry_wait = Runtime_intf.Retry_wait

type config = Runtime_intf.config = {
  max_attempts : int option;
  block_poll_usec : int;
  backoff_cap_usec : int;
}

let default_config = Runtime_intf.default_config

type stats_snapshot = Runtime_intf.stats_snapshot = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}

type t = {
  config : config;
  cm : Cm_intf.factory;
  stats : Tcm_metrics.Plane.group;  (** One slot per domain that used this runtime. *)
  dls : per_domain Domain.DLS.key;
}

and per_domain = {
  cm_state : Cm_intf.packed;
  probe : Tcm_obs.Probe.t;
      (** This domain's lifecycle handle: statistics, trace, metrics,
          ledger and hot keys, one call per lifecycle point. *)
  pool : Tvar.pool;  (** This domain's locator freelist + hazard slot. *)
  scratch : tx;
      (** The domain's reusable transaction context; reset by field
          stores, never reallocated, at each attempt start. *)
  mutable running : bool;
      (** Whether [scratch] is currently inside [atomically] (the
          nested-transaction test; replaces an allocated [tx option]). *)
}

and tx = {
  cfg : config;
  dom : per_domain;
  mutable txn : Txn.t;  (** Current attempt; fresh per attempt. *)
  mutable n_opens : int;
      (** Objects opened by this attempt (reads and writes) — the
          read-set-size sample recorded at commit. *)
}

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
            pool = Tvar.domain_pool ();
            scratch;
            running = false;
          }
        and scratch = { cfg = config; dom; txn = Txn.committed_sentinel; n_opens = 0 } in
        dom)
  in
  { config; cm; stats; dls }

let manager_name t = Cm_intf.name t.cm
let stats t = Tcm_obs.Probe.stats t.stats
let pp_stats = Runtime_intf.pp_stats

(* ------------------------------------------------------------------ *)
(* Attempt-local helpers                                               *)
(* ------------------------------------------------------------------ *)

let check_self tx = Runtime_intf.check_active tx.txn
let consult = Runtime_intf.consult

(* The shared verdict execution, for a conflict over the variable
   whose id is [key]. *)
let resolve_conflict tx ~other ~attempts ~key =
  Runtime_intf.resolve_conflict ~cm:tx.dom.cm_state ~probe:tx.dom.probe ~config:tx.cfg
    ~me:tx.txn ~other ~attempts ~key

let cm_opened tx =
  tx.n_opens <- tx.n_opens + 1;
  Txn.record_open tx.txn;
  let (Cm_intf.Packed ((module M), st)) = tx.dom.cm_state in
  M.opened st tx.txn

(* ------------------------------------------------------------------ *)
(* Open for write                                                      *)
(* ------------------------------------------------------------------ *)

(* After acquiring the locator, resolve every active visible reader.
   Readers registering after our CAS observe us as active owner and
   resolve from their side, so scanning once per remaining active
   reader suffices for mutual awareness. *)
let rec drain_readers tx tvar attempts =
  check_self tx;
  match Tvar.find_active_reader tvar tx.txn with
  | None -> Tvar.purge_readers tvar
  | Some r ->
      resolve_conflict tx ~other:r ~attempts ~key:(Tvar.id tvar);
      drain_readers tx tvar (attempts + 1)

(* Open [tvar] for writing and return the transaction's tentative
   value for it.  With [put = true] the tentative value becomes [v];
   with [put = false] ([read_for_write]) it is left as it was.

   Pooled locators make the two classic windows of the DSTM install
   CAS dangerous, and one hazard-slot publication per open closes
   both — {e provided no field of [loc] is read before the hazard is
   known effective}:

   - {e Field reads.}  [Tvar.protect] (an SC store, so it fences) is
     followed by a re-load of the variable that must still yield
     [loc] before any field is touched.  The re-load orders the field
     reads after the install CAS of whichever incarnation is linked
     (they read a locator whose refill completed before that CAS),
     and the hazard guarantees there will be no {e next} incarnation
     while we hold it: any displacement ordered after our re-load
     reaches the freelist pop's hazard scan, which drops held
     candidates.  Protecting without re-loading would not be enough —
     a freelist pop that raced the protect leaves [loc] mid-refill,
     its [owner] and value fields mixing incarnations (the bug class
     this ordering exists to rule out: a stale [owner] read could
     even present a dead attempt of ours as live ownership and let
     the repeat-write store below corrupt an enemy's locator).

   - {e The CAS itself.}  The same argument makes the install CAS
     ABA-free — from the re-load on, [loc] cannot be displaced,
     recycled and reinstalled behind its back — so a successful CAS
     proves the incarnation we validated was linked continuously, and
     the displaced [loc] satisfies the reclamation rule (owner
     decided, unlinked by our CAS).

   Presetting [new_v] through [take_locator] (before publication)
   means no store into a {e published} locator is needed on the fresh
   path; the only such store is the repeat-write branch below, safe
   because the hazard-then-linked re-check proved [loc] is our own
   live incarnation and pinned it against recycling.  The hazard slot
   stays published between opens — the next open overwrites it, and
   the attempt epilogue clears it — so an open costs one hazard store
   and one extra load, not a protect/unprotect pair.

   When the incumbent's owner is already decided — the uncontended
   case — the contention manager is not consulted at all: a dead
   owner cannot lose anything, so there is no conflict in the paper's
   sense, and the open costs one CAS plus the pool refill. *)
let rec open_write : 'a. tx -> 'a Tvar.t -> put:bool -> 'a -> int -> 'a =
  fun tx tvar ~put v attempts ->
   check_self tx;
   let pool = tx.dom.pool in
   let loc = Atomic.get tvar.Tvar.loc in
   Tvar.protect pool loc;
   if Atomic.get tvar.Tvar.loc != loc then
     (* Displaced before the hazard took effect (possibly mid-refill
        by now); nothing was read from it.  Retry from a fresh load. *)
     open_write tx tvar ~put v attempts
   else if loc.Tvar.owner == tx.txn then
     (* Repeat access to a variable we hold.  (Ownership cannot be
        spurious: the linked re-check above ordered this read after
        the install CAS of the linked incarnation, and only this
        domain writes this attempt's descriptor into owner fields.)
        [loc] is pinned by the hazard, so the store below cannot land
        in a recycled locator's next incarnation. *)
     if put then begin
       loc.Tvar.new_v <- v;
       v
     end
     else loc.Tvar.new_v
   else begin
     let owner = loc.Tvar.owner in
     let st = Txn.status owner in
     match st with
     | Status.Active ->
         resolve_conflict tx ~other:owner ~attempts ~key:(Tvar.id tvar);
         open_write tx tvar ~put v (attempts + 1)
     | Status.Committed | Status.Aborted ->
         let cur =
           match st with Status.Committed -> loc.Tvar.new_v | _ -> loc.Tvar.old_v
         in
         let value = if put then v else cur in
         let nloc = Tvar.take_locator pool ~owner:tx.txn ~old_v:cur ~new_v:value in
         Tcm_obs.Probe.pool tx.dom.probe
           (if Tvar.last_take_hit pool then Tcm_metrics.Conventions.p_hit
            else Tcm_metrics.Conventions.p_miss);
         if Atomic.compare_and_set tvar.Tvar.loc loc nloc then begin
           if Tvar.recycle_locator pool loc then
             Tcm_obs.Probe.pool tx.dom.probe Tcm_metrics.Conventions.p_recycled;
           drain_readers tx tvar 0;
           cm_opened tx;
           Tcm_trace.Sink.acquired ~txid:(Txn.timestamp tx.txn)
             ~obj:tvar.Tvar.id ~write:true ~tick:0;
           value
         end
         else begin
           (* Lost the install race; [nloc] was never published, so
              it goes straight back to the freelist (no [recycled]
              event: nothing was displaced). *)
           ignore (Tvar.recycle_locator pool nloc);
           open_write tx tvar ~put v attempts
         end
   end

(* ------------------------------------------------------------------ *)
(* Public transactional operations                                     *)
(* ------------------------------------------------------------------ *)

let write tx tvar v = ignore (open_write tx tvar ~put:true v 0)

(* Seqlock read of a locator we believe we own.  The generation must
   be even (no refill in flight) before any field is trusted — an odd
   or changed generation means the fields may mix incarnations, so the
   read retries from a fresh locator load.  Under a stable generation
   the ownership test cannot be spurious: only this domain ever stores
   this attempt's descriptor into an owner field.  A re-check that
   fails on the owned path means our locator was displaced — possible
   only after an enemy aborted us — so the attempt restarts.

   The linked re-check after the first generation sample ([Atomic.get
   tvar.loc != loc]) is as load-bearing as the generation itself:
   stability only proves the fields came from a single incarnation,
   not that the incarnation belongs to {e this} variable.  A reader
   preempted between the locator load and the generation sample can
   find the record displaced, recycled and refilled for a {e
   different} variable — readers hold no hazard, so the freelist pop
   does not spare them — and the refill leaves a new {e even}
   generation that validates perfectly.  The leaked value then
   belongs to the other variable (observed in the wild as a skiplist
   node surfacing in a taller level's slot and indexing past its
   forward array).  Re-checking the link inside the stable-generation
   window closes this: the record is linked to [tvar] at the
   re-check, and the unchanged generation across the whole window
   rules out any interleaved refill, so the fields are [tvar]'s. *)

let rec read_visible : 'a. tx -> 'a Tvar.t -> int -> 'a =
  fun tx tvar attempts ->
   check_self tx;
   let loc = Atomic.get tvar.Tvar.loc in
   let g = Tvar.locator_gen loc in
   if (not (Tvar.gen_stable g)) || Atomic.get tvar.Tvar.loc != loc then
     read_visible tx tvar attempts
   else if loc.Tvar.owner == tx.txn then begin
     let v = loc.Tvar.new_v in
     if Tvar.locator_gen loc = g then v
     else begin
       check_self tx;
       raise Abort_attempt
     end
   end
   else begin
     Tvar.register_reader tvar tx.txn;
     (* Re-read after registration: any writer that acquired before our
        registration either drained us (sees us in the list) or is
        observed right here. *)
     let loc = Atomic.get tvar.Tvar.loc in
     let g = Tvar.locator_gen loc in
     if (not (Tvar.gen_stable g)) || Atomic.get tvar.Tvar.loc != loc then
       read_visible tx tvar attempts
     else begin
       let owner = loc.Tvar.owner in
       if owner == tx.txn then begin
         let v = loc.Tvar.new_v in
         if Tvar.locator_gen loc = g then v
         else begin
           check_self tx;
           raise Abort_attempt
         end
       end
       else begin
         let st = Txn.status owner in
         let v =
           match st with Status.Committed -> loc.Tvar.new_v | _ -> loc.Tvar.old_v
         in
         if Tvar.locator_gen loc <> g then
           (* Recycled under us: fields (and [owner]) may mix
              incarnations; retry from a fresh locator load. *)
           read_visible tx tvar attempts
         else
           match st with
           | Status.Active ->
               resolve_conflict tx ~other:owner ~attempts ~key:(Tvar.id tvar);
               read_visible tx tvar (attempts + 1)
           | Status.Committed | Status.Aborted ->
               cm_opened tx;
               v
       end
     end
   end

let read tx tvar = read_visible tx tvar 0

(** Read through the write path: acquires the variable exclusively.
    Use for read-modify-write accesses to avoid upgrade conflicts. *)
let read_for_write (tx : tx) tvar =
  (* [v] is never used on the [put = false] path; any value of the
     right type will do, and the variable's own current value is one
     we can name without touching the user's type. *)
  open_write tx tvar ~put:false (Atomic.get tvar.Tvar.loc).Tvar.old_v 0

let modify tx tvar f = write tx tvar (f (read_for_write tx tvar))

(** User-requested abort-and-retry of the current attempt. *)
let retry_now tx : 'a =
  ignore (Txn.try_abort tx.txn);
  raise Abort_attempt

(** Blocking retry (Harris-et-al style [retry]): abort and re-run the
    transaction after a pause, so the caller effectively waits for the
    state it read to change.  The pause grows geometrically up to the
    configured cap. *)
let retry_wait tx : 'a =
  ignore (Txn.try_abort tx.txn);
  raise Retry_wait

(** [check tx cond]: proceed if [cond] holds, otherwise block (via
    {!retry_wait}) until a later re-execution sees it hold. *)
let check tx cond = if not cond then retry_wait tx

(* ------------------------------------------------------------------ *)
(* The atomic block                                                    *)
(* ------------------------------------------------------------------ *)

(* One attempt bookkeeping cycle.  Top-level (not a closure inside
   [atomically]) so the per-transaction path allocates nothing beyond
   the attempt descriptor itself. *)

let finish_abort dom tx =
  ignore (Txn.try_abort tx.txn);
  Atomic.set tx.txn.Txn.waiting false;
  (* An abort can be raised while the hazard slot covers a locator
     (conflict resolution inside [open_write], mid-drain). *)
  Tvar.unprotect dom.pool;
  (* The dead attempt's work — everything it opened — is what the
     abort wastes, in the cost model's unit. *)
  Tcm_obs.Probe.abort dom.probe ~txid:(Txn.timestamp tx.txn) ~attempt:tx.txn.Txn.attempt_id
    ~tick:0 ~opens:tx.n_opens;
  let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
  M.aborted cm_st tx.txn;
  dom.running <- false

let rec attempt_loop : 'a. t -> per_domain -> tx -> (tx -> 'a) -> Txn.shared -> int -> int -> 'a =
  fun rt dom tx f shared wait_round n ->
   (match rt.config.max_attempts with
   | Some m when n > m -> raise (Too_many_attempts n)
   | _ -> ());
   let txn = Txn.new_attempt shared in
   tx.txn <- txn;
   tx.n_opens <- 0;
   dom.running <- true;
   let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
   M.begin_attempt cm_st txn;
   Tcm_obs.Probe.attempt_begin dom.probe ~txid:(Txn.timestamp txn)
     ~attempt:txn.Txn.attempt_id ~tick:0;
   match f tx with
   | v ->
       if Txn.try_commit txn then begin
         (* Opens leave the hazard slot published (one store per open,
            not a pair); release it now so the last locator we touched
            does not linger un-recyclable. *)
         Tvar.unprotect dom.pool;
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
       (* The caller is waiting for another transaction to change the
          state it checked. *)
       Runtime_intf.retry_pause rt.config wait_round;
       attempt_loop rt dom tx f shared (wait_round + 1) (n + 1)
   | exception e ->
       (* User exception: abort the transaction, propagate. *)
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
         noticed.  Starting an unrelated top-level transaction here (the
         historical behaviour) would alias the enclosing attempt's
         reused context, so instead abort the enclosing attempt — it is
         doomed anyway, and its restart re-runs this call. *)
      raise Abort_attempt
  else attempt_loop rt dom dom.scratch f (Txn.new_shared ()) 0 1

(** Descriptor of the transaction currently running on this domain;
    for diagnostics. *)
let current_txn rt =
  let dom = Domain.DLS.get rt.dls in
  if dom.running then Some dom.scratch.txn else None
