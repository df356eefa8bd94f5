(** Transactional variables (the STM's shared objects).

    A [Tvar] follows the DSTM/SXM locator protocol.  The variable
    points atomically at a {e locator}: the owning transaction attempt,
    the last committed value [old_v] and the tentative value [new_v].
    The logical value of the variable is

    - [new_v]  if the owner committed,
    - [old_v]  if the owner is active or aborted.

    A writer acquires the variable by installing (with CAS) a locator
    that carries itself as owner; [new_v] is mutated exclusively by the
    owner while it is active, and becomes the committed value if the
    owner's commit CAS succeeds.  Publication of [new_v] happens
    through the owner's atomic status transition, which makes the plain
    field safe under the OCaml memory model (message-passing pattern).

    {1 Locator pooling}

    Locators are {e pooled}: instead of allocating a record (plus a
    value ref) on every [open_write], each domain keeps a small
    freelist of dead locators and refills one in place.  That makes
    the steady-state write path allocation-free, at the price of two
    hazards that the plain protocol did not have:

    - {e Seqlock generations.}  A pooled locator's fields are mutable,
      so a reader that loaded the locator pointer may observe fields
      from a {e later incarnation} if the locator is recycled
      mid-read.  Every locator therefore carries a two-phase
      generation counter [gen]: a refill bumps it to an {e odd} value
      before storing any field of the new incarnation and to the next
      {e even} value once the stores are done, so an odd generation
      means "refill in flight — fields unreliable".  Readers use the
      seqlock recipe: load the locator, load [gen] and {e retry if it
      is odd}, read the fields, re-check [gen].  An unchanged (hence
      even) generation proves the fields all belonged to one completed
      incarnation — a reader whose first [gen] load lands between the
      odd bump and the field stores sees the odd value and retries,
      which a single bump could not detect — so the read linearizes at
      the initial load, exactly like the unpooled protocol.

    - {e Hazard slots (the reclamation rule).}  A locator may be
      recycled only after its owner's status is decided {e and} it has
      been unlinked from the variable: recycling is therefore driven
      by displacement — the writer whose CAS replaces a dead locator
      pushes the displaced one onto its own domain's freelist.  A
      still-published locator is never recycled, since concurrent
      readers resolve values through it.  Unlinking alone is not
      enough, though: a reader (or the owner mutating [new_v]) may
      still hold a reference it is about to dereference.  Each domain
      owns one {e hazard slot}; publishing a locator there and then
      re-checking that it is still linked guarantees the locator
      cannot be refilled until the slot is cleared (any unlink ordered
      after the re-check happens before the freelist pop that would
      reuse it, and the pop scans every hazard slot, dropping — never
      reusing — a candidate that is held).  This also makes the
      acquire CAS ABA-free: a hazard-protected incumbent cannot be
      displaced, recycled and reinstalled behind the CAS's back.

    The pool is bounded ([pool_cap] per domain); beyond that, and for
    hazard-held candidates, locators are simply dropped for the GC —
    pooling is an optimisation, never a liveness requirement.  A
    pooled locator pins its last [owner]/[old_v]/[new_v] until reuse;
    the bound keeps that retention O(pool_cap) per domain.

    {1 Per-variable bookkeeping: one inline reader slot, the rest spilled}

    A variable is 18 words in five blocks: the record, the [loc] cell,
    the committed locator with its generation cell, one inline reader
    slot and the [spill] cell.  The rest of the reader bookkeeping —
    three more reader slots and the reader overflow list — lives in a
    15-word {e spill block} that most variables never get.  A fresh
    variable's [spill] cell points at one shared empty sentinel,
    [no_spill], with no slots and an empty overflow.  A CAS installs a
    variable's own block, once, the first time a second live reader
    registers; an installed block is never replaced.  TL2 (which
    validates against a global clock and a striped orec table) and a
    lone reader never install one.

    Visible readers register by CAS in the inline slot, or, when a live
    reader holds it, in a slot of the spill block (installing it first),
    or in the block's CAS'd overflow list when every slot holds a live
    reader.  Dead entries are reclaimed lazily.  A reader registers {e
    before} it re-reads the locator; a writer, after its install CAS,
    scans the inline slot and then whatever block the [spill] cell
    holds.  All of these are SC atomics, so either the writer's scan
    sees the registration or the reader's re-read sees the writer's
    locator.  A registration in a block follows that block's install,
    and the block is never replaced, so a writer that read the sentinel
    scanned before the registration and the reader sees its locator.
    Registration and writer-side scans are allocation-free while the
    slots suffice; the block itself is the one allocation, once per
    variable. *)

type 'a locator = {
  mutable owner : Txn.t;
  mutable old_v : 'a;
  mutable new_v : 'a;
  gen : int Atomic.t;
      (** Two-phase incarnation counter: odd while a refill's field
          stores are in flight, even once the incarnation is complete
          (see the seqlock rule above).  Never reset. *)
}

type spill = { slots : Txn.t Atomic.t array; overflow : Txn.t list Atomic.t }

type 'a t = {
  id : int;
  loc : 'a locator Atomic.t;
  reader : Txn.t Atomic.t;
  spill : spill Atomic.t;
}

(* An empty reader slot.  The sentinel is permanently committed, hence
   never an active reader, so scans need no separate emptiness test. *)
let no_reader = Txn.committed_sentinel

(* The shared sentinel of every unspilled variable.  Its empty slot
   array makes scans of it free; its overflow cell is never written
   (registration installs a block first, and a purge CASes an overflow
   only when it held a dead entry). *)
let no_spill = { slots = [||]; overflow = Atomic.make [] }

let new_spill () =
  {
    slots = [| Atomic.make no_reader; Atomic.make no_reader; Atomic.make no_reader |];
    overflow = Atomic.make [];
  }

(* The variable's own block, installed first if it still has the
   sentinel.  A losing installer adopts the winner's block, so there is
   one block per variable, ever. *)
let spill t =
  let s = Atomic.get t.spill in
  if s != no_spill then s
  else
    let b = new_spill () in
    if Atomic.compare_and_set t.spill no_spill b then b else Atomic.get t.spill

let spilled t = Atomic.get t.spill != no_spill

(* ------------------------------------------------------------------ *)
(* Locator pool & hazard slots                                         *)
(* ------------------------------------------------------------------ *)

let locator_gen (loc : 'a locator) = Atomic.get loc.gen

(* Even = the incarnation's refill stores are complete; odd = a refill
   is in flight and the fields may mix incarnations. *)
let gen_stable g = g land 1 = 0

(* Pools hold locators type-erased to [Obj.t]: values of every ['a]
   share one uniform representation, and a refill overwrites both value
   fields before the locator is re-exposed, so the [Obj.magic] at
   [take_locator] never lets one incarnation's payload escape into
   another's type.  (The locator record also carries the non-value
   [owner]/[gen] fields, so it can never be subject to the flat-float
   representation — fields are always boxed uniformly.) *)
type erased = Obj.t locator

let dummy_locator : erased =
  { owner = Txn.committed_sentinel; old_v = Obj.repr 0; new_v = Obj.repr 0; gen = Atomic.make 0 }

(* A unique block that is never a locator, marking an idle hazard
   slot. *)
let no_hazard : Obj.t = Obj.repr (ref 0)

type pool = {
  mutable items : erased array;  (** Freelist stack, owner-domain only. *)
  mutable len : int;
  mutable last_hit : bool;
      (** Whether the most recent [take_locator] was a freelist refill
          (out-of-band so the hot path returns the locator unboxed,
          with no tuple). *)
  hazard : Obj.t Atomic.t;
      (** The locator this domain is currently dereferencing (or
          [no_hazard]).  Written only by the owning domain; read by
          every domain's freelist pop. *)
}

let pool_cap = 64

(* All live hazard slots, scanned by [take_locator].  One slot per
   domain-with-a-pool; domains are few, so a list scan per pool pop is
   cheap.  A slot is removed when its domain exits (the domain runs no
   transaction by then, so the slot is idle) — otherwise workloads that
   churn short-lived domains would grow the list without bound and
   every pop would scan the full history. *)
let hazard_registry : Obj.t Atomic.t list Atomic.t = Atomic.make []

let rec register_hazard h =
  let l = Atomic.get hazard_registry in
  if not (Atomic.compare_and_set hazard_registry l (h :: l)) then register_hazard h

let rec unregister_hazard h =
  let l = Atomic.get hazard_registry in
  let l' = List.filter (fun x -> x != h) l in
  if not (Atomic.compare_and_set hazard_registry l l') then unregister_hazard h

let hazard_slot_count () = List.length (Atomic.get hazard_registry)

let pool_key =
  Domain.DLS.new_key (fun () ->
      let hazard = Atomic.make no_hazard in
      register_hazard hazard;
      Domain.at_exit (fun () -> unregister_hazard hazard);
      { items = Array.make pool_cap dummy_locator; len = 0; last_hit = false; hazard })

let domain_pool () = Domain.DLS.get pool_key

(* Never registered and never used: TL2 contexts hold it in place of
   a pool, so a TL2 domain takes no hazard slot. *)
let no_pool = { items = [||]; len = 0; last_hit = false; hazard = Atomic.make no_hazard }

let pool_size p = p.len
let last_take_hit p = p.last_hit

let protect (p : pool) (loc : 'a locator) = Atomic.set p.hazard (Obj.repr loc)
let unprotect (p : pool) = Atomic.set p.hazard no_hazard

let rec hazard_held hs (o : Obj.t) =
  match hs with
  | [] -> false
  | h :: rest -> Atomic.get h == o || hazard_held rest o

(* Pop a freelist entry no hazard slot currently holds; [dummy_locator]
   signals an empty freelist (it is never pushed, so the sentinel is
   unambiguous — and returning it instead of an option keeps the pop
   allocation-free).  A held candidate is dropped for the GC — the
   holder may dereference it arbitrarily late, so it must never be
   refilled. *)
let rec pop_free (p : pool) : erased =
  if p.len = 0 then dummy_locator
  else begin
    let n = p.len - 1 in
    p.len <- n;
    let c = p.items.(n) in
    p.items.(n) <- dummy_locator;
    if hazard_held (Atomic.get hazard_registry) (Obj.repr c) then pop_free p
    else c
  end

(** Take a locator owned by [owner] carrying the given value slots
    (the tentative value is preset {e before} publication, so the
    writer needs no store into the locator after its install CAS),
    refilled from the domain freelist when possible.  [last_take_hit]
    reports whether this call was a refill.  A refill is bracketed by
    two generation bumps (even → odd → even): the first precedes every
    field store — as an SC RMW it also fences them — and marks the
    refill in flight, the second publishes the completed incarnation.
    A seqlock reader racing the refill either sees a changed
    generation or the odd in-flight value, and retries either way; it
    can never validate fields that mix incarnations. *)
let take_locator (type a) (p : pool) ~(owner : Txn.t) ~(old_v : a) ~(new_v : a) :
    a locator =
  let c = pop_free p in
  if c == dummy_locator then begin
    p.last_hit <- false;
    { owner; old_v; new_v; gen = Atomic.make 0 }
  end
  else begin
      p.last_hit <- true;
      Atomic.incr c.gen (* even -> odd: refill in flight *);
      let l : a locator = Obj.magic c in
      l.owner <- owner;
      l.old_v <- old_v;
      l.new_v <- new_v;
      Atomic.incr c.gen (* odd -> even: incarnation complete *);
      l
  end

(** Return a locator to the domain freelist.  {b Reclamation rule}
    (caller's obligation): the locator's [owner] status must be
    decided, and the locator must be unlinked from its variable — i.e.
    the caller displaced it with a successful CAS, or it was never
    published at all (a CAS-loser).  Returns [false] when the pool is
    full and the locator was dropped for the GC instead. *)
let recycle_locator (p : pool) (loc : 'a locator) =
  if p.len >= pool_cap then false
  else begin
    p.items.(p.len) <- (Obj.magic loc : erased);
    p.len <- p.len + 1;
    true
  end

(* ------------------------------------------------------------------ *)
(* Construction & inspection                                           *)
(* ------------------------------------------------------------------ *)

let make v =
  {
    id = Txid.next_tvar_id ();
    loc =
      Atomic.make
        { owner = Txn.committed_sentinel; old_v = v; new_v = v; gen = Atomic.make 0 };
    reader = Atomic.make no_reader;
    spill = Atomic.make no_spill;
  }

let id t = t.id

(** Non-transactional store for bulk preloading, written into the
    variable's own linked locator, which it turns into a
    committed-sentinel locator carrying [v]; allocates nothing.  Only
    sound while the variable is {e unpublished} — no concurrent
    transaction (on either backend) may have seen it: the plain stores
    bypass conflict detection and the seqlock entirely, and reach
    other domains through whatever later publishes the variable.  Both
    backends read the committed value as [new_v] of a
    committed-sentinel locator, which is exactly what this leaves; the
    structure-level [unsafe_preload]s build million-entry stores
    through it without paying a commit per variable. *)
let unsafe_init t v =
  let l = Atomic.get t.loc in
  l.owner <- Txn.committed_sentinel;
  l.old_v <- v;
  l.new_v <- v

(** Value of a locator as seen by an outside observer, given the
    owner's status read {e after} the locator itself.  Only meaningful
    on a locator known stable: one the caller owns, holds under its
    hazard slot, or validates with the seqlock generation afterwards. *)
let value_of_locator (loc : 'a locator) : 'a =
  match Txn.status loc.owner with
  | Status.Committed -> loc.new_v
  | Status.Active | Status.Aborted -> loc.old_v

(** Latest committed value, for non-transactional inspection (tests,
    debugging).  Linearizes at the linked re-check below; the seqlock
    re-check guards against the locator being recycled mid-read.

    The linked re-check after the first generation sample is load-
    bearing: generation stability alone only proves the fields came
    from a {e single} incarnation, not that the incarnation belongs to
    {e this} variable.  Without it, a reader preempted between the
    locator load and the generation sample can find the record
    displaced, recycled and refilled for a different variable — with a
    new {e even} generation — and the seqlock happily validates the
    other variable's value.  Re-checking the link inside the stable-
    generation window pins the incarnation to this variable: the
    record is linked here at the re-check, and the unchanged
    generation across the window rules out any refill in between. *)
let rec peek t =
  let loc = Atomic.get t.loc in
  let g = Atomic.get loc.gen in
  if (not (gen_stable g)) || Atomic.get t.loc != loc then peek t
  else
    let owner = loc.owner in
    let v =
      match Txn.status owner with Status.Committed -> loc.new_v | _ -> loc.old_v
    in
    if Atomic.get loc.gen = g then v else peek t

(* ------------------------------------------------------------------ *)
(* Visible readers                                                     *)
(* ------------------------------------------------------------------ *)

(* Filter out dead readers, reporting whether any died, in one pass. *)
let rec live_readers acc died = function
  | [] -> (List.rev acc, died)
  | r :: rest ->
      if Txn.is_active r then live_readers (r :: acc) died rest
      else live_readers acc true rest

(* The registration loops live at top level: local recursive functions
   would close over the variable and the transaction, allocating two
   closures per visible read — the read path must stay
   allocation-free. *)
let rec rr_overflow (s : spill) (txn : Txn.t) =
  let rs = Atomic.get s.overflow in
  if List.memq txn rs then ()
  else
    let live, _ = live_readers [] false rs in
    if not (Atomic.compare_and_set s.overflow rs (txn :: live)) then rr_overflow s txn

let rec rr_slot (s : spill) (txn : Txn.t) n i =
  if i = n then rr_overflow s txn
  else
    let cell = s.slots.(i) in
    let r = Atomic.get cell in
    if r == txn then ()
    else if Txn.is_active r then rr_slot s txn n (i + 1)
    else if Atomic.compare_and_set cell r txn then ()
    else rr_slot s txn n i (* lost the race for this slot; re-examine it *)

(** Register [txn] as a visible reader: in the inline slot when it is
    free, holds [txn] already or holds a dead reader; otherwise in the
    spill block, installed on the way if the variable has none yet.
    The block's scan stops at the first slot that already holds [txn]
    or at the first claimable (dead) slot, so the common case — a lone
    reader claiming the inline slot, or re-reading a variable it
    already registered on — costs one load and at most one CAS, with
    no allocation.  The early exit tolerates
    the occasional duplicate registration (a transaction can claim the
    inline slot while it already holds a block slot): visibility only
    requires {e at least} one live entry, writers drain until no
    active reader remains, and dead duplicates are reclaimed lazily
    like any other entry.  Only when every slot holds a live reader
    does registration fall back to the CAS'd overflow list. *)
let rec register_reader t (txn : Txn.t) =
  let r = Atomic.get t.reader in
  if r == txn then ()
  else if Txn.is_active r then
    let s = spill t in
    rr_slot s txn (Array.length s.slots) 0
  else if not (Atomic.compare_and_set t.reader r txn) then register_reader t txn

let rec far_overflow (txn : Txn.t) = function
  | [] -> None
  | r :: rest -> if r != txn && Txn.is_active r then Some r else far_overflow txn rest

let rec far_slot (s : spill) (txn : Txn.t) n i =
  if i = n then far_overflow txn (Atomic.get s.overflow)
  else
    let r = Atomic.get s.slots.(i) in
    if r != txn && Txn.is_active r then Some r else far_slot s txn n (i + 1)

(** First active reader other than [txn], if any: the inline slot
    first, then the spill block (the sentinel's scan is empty).
    Allocation-free while the overflow list is empty. *)
let find_active_reader t (txn : Txn.t) =
  let r = Atomic.get t.reader in
  if r != txn && Txn.is_active r then Some r
  else
    let s = Atomic.get t.spill in
    far_slot s txn (Array.length s.slots) 0

let purge_slot cell =
  let r = Atomic.get cell in
  if r != no_reader && not (Txn.is_active r) then
    ignore (Atomic.compare_and_set cell r no_reader)

(** Opportunistically drop dead reader entries: dead slots (inline and
    spilled) are reset to the sentinel, and the overflow list is
    rebuilt in a single pass — the CAS is skipped entirely when
    nothing died.  The block itself stays installed. *)
let purge_readers t =
  purge_slot t.reader;
  let s = Atomic.get t.spill in
  Array.iter purge_slot s.slots;
  match Atomic.get s.overflow with
  | [] -> ()
  | rs ->
      let live, died = live_readers [] false rs in
      if died then ignore (Atomic.compare_and_set s.overflow rs live)

let reader_entries t =
  let n = if Atomic.get t.reader != no_reader then 1 else 0 in
  let s = Atomic.get t.spill in
  Array.fold_left (fun n c -> if Atomic.get c != no_reader then n + 1 else n) n s.slots
  + List.length (Atomic.get s.overflow)
