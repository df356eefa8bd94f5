(** The STM execution engine.

    [atomically rt f] runs [f] as a transaction under the runtime's
    contention manager, retrying on abort until the commit CAS
    succeeds.  Conflicts are detected eagerly, at access time, exactly
    as in DSTM/SXM: the acquiring transaction consults its local
    contention manager and either aborts the enemy or stands back.

    Two read modes are supported:

    - [`Visible] (default): readers register on the variable; writers
      resolve each active reader through the contention manager after
      acquiring the locator.  This makes read-write conflicts go
      through the manager (the paper's model) and yields serializable
      executions without commit-time validation.
    - [`Invisible]: DSTM-style invisible reads with incremental
      (TL2-style) validation.  Each transaction keeps a watermark
      [valid_upto]: the global stamp-clock value at which its whole
      read set is known valid.  Invisible-mode writers advance a
      variable's stamp when they install a locator and just before
      they publish a commit, so a newly opened variable whose stamp is
      at or below the watermark extends the read set in O(1); a moved
      stamp forces a full revalidation (which itself skips entries
      whose stamps did not move).  Stamps are trusted only for entries
      resolved from terminal-status owners: an entry read under a
      still-Active owner is rechecked on every validation — and forces
      per-read revalidation while it exists — because that owner may
      already have published its commit stamp, so its status flip
      would not move the stamp again.  Cheaper under read-mostly
      loads; provided for the ablation benchmarks.  Note the classic
      caveat: the window between the last validation and the commit
      CAS admits a narrow write-skew race, so this mode trades
      strictness for speed.  Invisible-mode consistency assumes the
      writers sharing those tvars also run in invisible mode (stamps
      are not advanced by visible-mode writers).

    {1 Allocation discipline}

    The steady-state hot paths allocate nothing (see DESIGN.md,
    "Allocation discipline"):

    - locators come from the per-domain pool in [Tvar], refilled in
      place and recycled when displaced;
    - the transaction context [tx] is a per-domain scratch record,
      reused across attempts and logical transactions; its read log
      and write-stamp log are growable flat arrays, never reallocated
      mid-attempt and scrubbed (dummy-filled, oversized arrays
      dropped) when the attempt ends, so a finished transaction pins
      none of its read set;
    - per logical transaction the runtime allocates only the [shared]
      descriptor, and per attempt only the [Txn.t] attempt record with
      its two atomics — those must stay fresh, because enemies abort a
      specific attempt by CAS-ing {e its} status word, and a reused
      status cell could receive an abort meant for a dead attempt.

    Committing a read-only transaction in invisible mode takes a fast
    path: final validation alone, with no status CAS and no stamp
    publication (nothing was published that other transactions could
    observe, so no terminal status needs to be advertised).  Visible
    mode cannot skip the CAS: registered reader-slot entries are
    reclaimed by writers {e only} when the registrant's status is
    decided, so a forever-Active reader descriptor would pin its slots
    and stall writers. *)

let backend_name = "locator"

(* The control-flow exceptions, configuration and statistics type
   are shared with the TL2 backend through [Runtime_intf]; the
   re-export equations below keep existing [Runtime.]-qualified
   callers compiling unchanged. *)

exception Abort_attempt = Runtime_intf.Abort_attempt
exception Too_many_attempts = Runtime_intf.Too_many_attempts
exception Retry_wait = Runtime_intf.Retry_wait

type read_mode = Runtime_intf.read_mode

type config = Runtime_intf.config = {
  read_mode : read_mode;
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

(* Validity of a read entry at recheck time.  [Valid_stable]: the
   entry cannot be invalidated without the variable's stamp moving
   (its locator carries a terminal-status owner, or our own upgrade
   locator), so revalidation may cache the current stamp in [seen].
   [Valid_fragile]: the value is right now, but rests on a
   still-Active owner — and commit publication writes stamps {e
   before} the status CAS, so that owner may already have published
   its commit stamp, in which case its status flip would invalidate
   the entry without any further stamp movement.  Fragile entries
   therefore never cache a stamp and are rechecked on every
   validation. *)
type validity = Invalid | Valid_fragile | Valid_stable

(* A validated invisible read.  [stamp] is the variable's version cell
   and [seen] the stamp at which the entry was last known
   stable-valid: an unchanged stamp then means no invisible writer
   installed or committed on the variable since, so revalidation can
   skip the entry.  Fragile entries keep [seen = -1] (matching no real
   stamp) until a recheck finds them stable.  [check] decides validity
   from the locator: the entry stays valid while the variable still
   carries the locator we resolved the value from {e in the same
   incarnation} (locator pointer plus seqlock generation) and the
   resolution is unchanged — or once the reading transaction itself
   owns the variable with the observed value as the locator's old
   version (read-then-write upgrade). *)
type read_entry = { stamp : int Atomic.t; mutable seen : int; check : unit -> validity }

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
      (** The domain's reusable transaction context; reset (by lengths
          and field stores, never reallocation) at each attempt start. *)
  mutable running : bool;
      (** Whether [scratch] is currently inside [atomically] (the
          nested-transaction test; replaces an allocated [tx option]). *)
}

and tx = {
  cfg : config;
  dom : per_domain;
  mutable txn : Txn.t;  (** Current attempt; fresh per attempt. *)
  mutable read_log : read_entry array;  (** Invisible mode only. *)
  mutable read_len : int;
  mutable valid_upto : int;
      (** Stamp-clock watermark: the read set is known valid as of this
          clock value (invisible mode only). *)
  mutable n_fragile : int;
      (** Read-log entries currently resting on a still-Active owner
          (see [validity]).  While non-zero, the watermark argument is
          unsound — such an entry can go stale without a stamp moving —
          so every read revalidates the whole set, as the pre-stamp
          runtime did. *)
  mutable wstamps : int Atomic.t array;
      (** Stamp cells of variables acquired this attempt, bulk-bumped
          at commit publication (invisible mode only).  Flat array,
          cleared by [wstamps_len <- 0]. *)
  mutable wstamps_len : int;
  mutable n_writes : int;
      (** Variables acquired by this attempt (both read modes) — zero
          means the commit may take the read-only fast path. *)
  mutable n_opens : int;
      (** Objects opened by this attempt (reads and writes) — the
          read-set-size sample recorded at commit. *)
}

let empty_log : read_entry array = [||]
let empty_wstamps : int Atomic.t array = [||]

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
        and scratch =
          {
            cfg = config;
            dom;
            txn = Txn.committed_sentinel;
            read_log = empty_log;
            read_len = 0;
            valid_upto = 0;
            n_fragile = 0;
            wstamps = empty_wstamps;
            wstamps_len = 0;
            n_writes = 0;
            n_opens = 0;
          }
        in
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
(* Invisible-read validation                                           *)
(* ------------------------------------------------------------------ *)

let dummy_entry = { stamp = Atomic.make 0; seen = 0; check = (fun () -> Valid_stable) }

let push_read tx e =
  let cap = Array.length tx.read_log in
  if tx.read_len = cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) dummy_entry in
    Array.blit tx.read_log 0 a 0 cap;
    tx.read_log <- a
  end;
  tx.read_log.(tx.read_len) <- e;
  tx.read_len <- tx.read_len + 1

let no_stamp = Atomic.make 0

let push_wstamp tx cell =
  let cap = Array.length tx.wstamps in
  if tx.wstamps_len = cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) no_stamp in
    Array.blit tx.wstamps 0 a 0 cap;
    tx.wstamps <- a
  end;
  tx.wstamps.(tx.wstamps_len) <- cell;
  tx.wstamps_len <- tx.wstamps_len + 1

(* Scratch arrays above this capacity are replaced rather than kept: a
   single huge transaction must not pin a huge log on the domain
   forever. *)
let log_retain_cap = 1024

(* Scrub the scratch logs when an attempt ends.  Resetting by length
   alone would keep every entry — closures over tvars, stamp cells and
   user values — reachable until the slot happens to be overwritten by
   a later transaction, pinning a finished transaction's whole read
   set.  Runs in the attempt epilogue (commit and abort), so the cost
   sits next to the O(read set) work the attempt already did. *)
let clear_logs tx =
  if Array.length tx.read_log > log_retain_cap then tx.read_log <- empty_log
  else if tx.read_len > 0 then Array.fill tx.read_log 0 tx.read_len dummy_entry;
  tx.read_len <- 0;
  if Array.length tx.wstamps > log_retain_cap then tx.wstamps <- empty_wstamps
  else if tx.wstamps_len > 0 then Array.fill tx.wstamps 0 tx.wstamps_len no_stamp;
  tx.wstamps_len <- 0

(* The entry captures the owner and seqlock generation it was resolved
   under: [check] must never dereference [loc.owner] afresh, because a
   recycled locator's owner field belongs to a different transaction —
   a live one whose status would be mistaken for our resolution
   basis. *)
let make_read_entry (type v) (tx : tx) (tvar : v Tvar.t) (loc : v Tvar.locator)
    ~(owner : Txn.t) ~gen0 ~saw_committed ~stamp ~seen (value : v) : read_entry =
  let check () =
    let cur = Atomic.get tvar.Tvar.loc in
    if cur == loc && Tvar.locator_gen loc = gen0 then
      if saw_committed then Valid_stable
      else
        (* We resolved [old_v] against a non-committed owner: the value
           goes wrong exactly if that owner commits.  Aborted is
           terminal, so the entry is stable from then on; an Active
           owner may still commit — possibly having already published
           its commit stamp — so the entry stays fragile. *)
        (match Txn.status owner with
        | Status.Committed -> Invalid
        | Status.Aborted -> Valid_stable
        | Status.Active -> Valid_fragile)
    else if cur.Tvar.owner == tx.txn && cur.Tvar.old_v == value then
      (* Upgrade: we acquired the variable ourselves after reading it;
         the read stays consistent iff the stable value we captured at
         acquisition is the one we had read.  Stable: only we can
         replace our own locator while this attempt lives, and any
         later replacement bumps the stamp.  (No false positives from
         recycling: only this domain ever writes this attempt's
         descriptor into a locator's owner field.) *)
      Valid_stable
    else Invalid
  in
  { stamp; seen; check }

(* Revalidate the read set, skipping entries whose stamp did not move
   since they were last found {e stable-}valid (an unchanged stamp
   then means no invisible writer installed or committed on that
   variable).  Fragile entries never cached a stamp ([seen = -1]), so
   they are rechecked on every call; the scan recounts them so reads
   know whether the watermark argument currently holds.  On success
   the watermark advances to the clock value read {e before} the scan,
   so later stamp bumps cannot be masked. *)
let validate_extend tx ~extend =
  let g = Tvar.now () in
  let ok = ref true in
  let frag = ref 0 in
  let i = ref 0 in
  while !ok && !i < tx.read_len do
    let e = tx.read_log.(!i) in
    let cur = Atomic.get e.stamp in
    if cur <> e.seen then (
      match e.check () with
      | Valid_stable -> e.seen <- cur
      | Valid_fragile -> incr frag
      | Invalid -> ok := false);
    incr i
  done;
  if not !ok then begin
    ignore (Txn.try_abort tx.txn);
    raise Abort_attempt
  end;
  tx.n_fragile <- !frag;
  if extend then tx.valid_upto <- g

let validate tx = validate_extend tx ~extend:false

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
           (match tx.cfg.read_mode with
            | `Visible -> drain_readers tx tvar 0
            | `Invisible ->
                (* Make concurrent invisible readers revalidate,
                   record the cell for commit publication, and
                   re-check our own read set (the entry on this very
                   variable flips to its upgrade branch). *)
                Tvar.bump_version tvar;
                push_wstamp tx (Tvar.stamp_cell tvar);
                validate_extend tx ~extend:true);
           tx.n_writes <- tx.n_writes + 1;
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

let rec read_invisible : 'a. tx -> 'a Tvar.t -> 'a =
  fun tx tvar ->
   check_self tx;
   let loc = Atomic.get tvar.Tvar.loc in
   let g = Tvar.locator_gen loc in
   if (not (Tvar.gen_stable g)) || Atomic.get tvar.Tvar.loc != loc then
     read_invisible tx tvar
   else if loc.Tvar.owner == tx.txn then begin
     let v = loc.Tvar.new_v in
     if Tvar.locator_gen loc = g then v
     else begin
       check_self tx;
       raise Abort_attempt
     end
   end
   else begin
     let owner = loc.Tvar.owner in
     let saw_committed =
       match Txn.status owner with Status.Committed -> true | _ -> false
     in
     let v = if saw_committed then loc.Tvar.new_v else loc.Tvar.old_v in
     (* The stamp is read after the owner's status: commit publication
        bumps stamps before the status CAS, so observing a committed
        owner implies observing its bump and taking the slow path.
        [stamp_cell] installs the variable's spill block on its first
        invisible access; the block is never replaced, so the entry
        keeps the one cell every later bump moves.

        The link is re-checked after the stamp read.  A writer installs
        its locator before it moves the stamp, so a stamp read while
        [loc] is still linked predates every bump of a writer that
        displaces [loc], and that bump moves the stamp past [ver].
        Without the re-check, [ver] could already be a later writer's
        published commit stamp while [v] came from the locator it
        displaced: [seen = ver] would then skip the stale entry in
        every validation (a torn a+b read in the invisible ABA
        hammer). *)
     let stamp = Tvar.stamp_cell tvar in
     let ver = Atomic.get stamp in
     if Tvar.locator_gen loc <> g || Atomic.get tvar.Tvar.loc != loc then
       read_invisible tx tvar
     else begin
       (* Trust the stamp only when the resolution came from a
          committed owner.  A still-Active owner may already have
          published its commit stamp to this very cell, so its later
          status flip would invalidate the entry while leaving the
          stamp — and hence every stamp-gated skip, including
          commit-time validation — unchanged.  [seen = -1] keeps such
          entries on the recheck path until a validation finds their
          owner in a terminal state. *)
       let seen =
         if saw_committed then ver
         else begin
           tx.n_fragile <- tx.n_fragile + 1;
           -1
         end
       in
       push_read tx
         (make_read_entry tx tvar loc ~owner ~gen0:g ~saw_committed ~stamp ~seen v);
       if ver > tx.valid_upto || tx.n_fragile > 0 then validate_extend tx ~extend:true;
       cm_opened tx;
       v
     end
   end

let read tx tvar =
  match tx.cfg.read_mode with
  | `Visible -> read_visible tx tvar 0
  | `Invisible -> read_invisible tx tvar

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

let publish_stamps tx =
  (* Publish stamps before the status CAS: a reader that observes the
     committed owner then necessarily observes moved stamps and falls
     back to full validation.  The store is monotone ([advance_stamp]):
     an attempt that loses the CAS below may publish arbitrarily late,
     and must not drag a stamp backward past the next owner's bump —
     its forward bump merely causes spurious revalidations
     elsewhere. *)
  if tx.wstamps_len > 0 then begin
    let s = Tvar.next_stamp () in
    for i = 0 to tx.wstamps_len - 1 do
      Tvar.advance_stamp tx.wstamps.(i) s
    done
  end

let commit tx =
  (* [validate] raises on failure; [commit] runs outside [atomically]'s
     exception match (the [v ->] branch), so convert to a [false]
     return here rather than letting [Abort_attempt] escape. *)
  match tx.cfg.read_mode with
  | `Invisible when tx.n_writes = 0 ->
      (* Read-only fast path: the transaction published nothing — no
         locators, no reader-slot entries, no waiting flag — so no
         other transaction ever consults its status, and final
         validation alone decides the commit.  The status CAS and
         stamp publication are skipped entirely.  (Writers keep the
         CAS: their locators make the attempt's status the variables'
         pending value, and visible-mode readers keep it too — their
         reader-slot entries are reclaimed only once the status is
         decided.) *)
      (match validate tx with () -> true | exception Abort_attempt -> false)
  | `Invisible -> (
      match validate tx with
      | () ->
          publish_stamps tx;
          Txn.try_commit tx.txn
      | exception Abort_attempt -> false)
  | `Visible -> Txn.try_commit tx.txn

(* One attempt bookkeeping cycle.  Top-level (not a closure inside
   [atomically]) so the per-transaction path allocates nothing beyond
   the attempt descriptor itself. *)

let finish_abort dom tx =
  ignore (Txn.try_abort tx.txn);
  Atomic.set tx.txn.Txn.waiting false;
  (* An abort can be raised while the hazard slot covers a locator
     (validation inside [acquire], conflict resolution mid-drain). *)
  Tvar.unprotect dom.pool;
  clear_logs tx;
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
   tx.read_len <- 0;
   tx.valid_upto <- Tvar.now ();
   tx.n_fragile <- 0;
   tx.wstamps_len <- 0;
   tx.n_writes <- 0;
   tx.n_opens <- 0;
   dom.running <- true;
   let (Cm_intf.Packed ((module M), cm_st)) = dom.cm_state in
   M.begin_attempt cm_st txn;
   Tcm_obs.Probe.attempt_begin dom.probe ~txid:(Txn.timestamp txn)
     ~attempt:txn.Txn.attempt_id ~tick:0;
   match f tx with
   | v ->
       if commit tx then begin
         (* Opens leave the hazard slot published (one store per open,
            not a pair); release it now so the last locator we touched
            does not linger un-recyclable.  Scrub the logs so the
            committed read set's entries (and the values they close
            over) do not stay pinned by the scratch descriptor. *)
         Tvar.unprotect dom.pool;
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
