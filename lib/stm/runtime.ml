(** The locator protocol: the obstruction-free DSTM/SXM backend.

    Its part of the one transaction lifecycle ({!Stm} runs the attempt
    loop) is [read], [write] and [read_for_write], the commit hook (the
    status CAS) and the abort hook (the hazard-slot release).
    Conflicts are detected eagerly, at access time, exactly as in
    DSTM/SXM: the acquiring transaction consults its local contention
    manager and either aborts the enemy or stands back.

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
    - the transaction context [tx] is the per-domain scratch record
      of {!Runtime_intf}, reused across attempts and logical
      transactions;
    - per logical transaction {!Stm.atomically} allocates only the
      [shared] descriptor, and per attempt only the [Txn.t] attempt
      record with its two atomics — those must stay fresh, because
      enemies abort a specific attempt by CAS-ing {e its} status word,
      and a reused status cell could receive an abort meant for a dead
      attempt.

    A read-only commit still takes the status CAS: registered
    reader-slot entries are reclaimed by writers {e only} when the
    registrant's status is decided, so a forever-Active reader
    descriptor would pin its slots and stall writers. *)

(* A runtime's counters ({!Stm.stats}), named here so that callers
   name the fields through [Runtime] (the workload outcome, the
   benchmark and the examples do).  Each domain's [Tcm_obs.Probe]
   counts into its own plane slot of the runtime's statistics group,
   folded into the group's retired total when the domain exits; a
   snapshot ordered after the counting domains' work — joined
   domains, as in the harness and every test — is exact. *)
type stats_snapshot = Tcm_obs.Probe.stats = {
  n_commits : int;
  n_aborts : int;
  n_conflicts : int;
  n_enemy_aborts : int;
  n_self_aborts : int;
  n_blocks : int;
  n_backoffs : int;
}

open Runtime_intf

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
let read_for_write tx tvar =
  (* [v] is never used on the [put = false] path; any value of the
     right type will do, and the variable's own current value is one
     we can name without touching the user's type. *)
  open_write tx tvar ~put:false (Atomic.get tvar.Tvar.loc).Tvar.old_v 0

(* ------------------------------------------------------------------ *)
(* Lifecycle hooks                                                     *)
(* ------------------------------------------------------------------ *)

(* Commit is the status CAS.  Opens leave the hazard slot published
   (one store per open, not a pair); release it now so the last
   locator we touched does not linger un-recyclable. *)
let commit tx =
  Txn.try_commit tx.txn
  && begin
       Tvar.unprotect tx.dom.pool;
       true
     end

(* An abort can be raised while the hazard slot covers a locator
   (conflict resolution inside [open_write], mid-drain). *)
let abort tx = Tvar.unprotect tx.dom.pool
