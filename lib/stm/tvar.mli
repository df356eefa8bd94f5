(** Transactional variables — the STM's shared objects, following the
    DSTM/SXM locator protocol.

    The variable atomically points at a {e locator}: the owning
    attempt, the last committed value [old_v], and the tentative value
    [new_v].  The logical value is [new_v] if the owner committed,
    [old_v] otherwise.  Writers acquire by CAS-installing a locator
    they own; [new_v] is mutated exclusively by the active owner and is
    published through the owner's atomic status transition
    (message-passing pattern, safe under the OCaml memory model).

    Locators are {e pooled} per domain, so the steady-state write path
    allocates nothing.  Pooling makes locator fields mutable, guarded
    by two mechanisms (see the implementation for the full argument):

    - a {e two-phase seqlock generation} [gen]: a refill bumps it to
      an odd value before its field stores and to the next even value
      after.  Readers retry on an odd generation and re-check the
      generation after reading fields — unchanged (hence even) proves
      the fields belong to one completed incarnation, the one linked
      at the initial load;
    - one {e hazard slot} per domain: publish the locator you are
      about to dereference, re-check it is still linked, and it cannot
      be refilled until you clear the slot.  The freelist pop scans
      all hazard slots and {e drops} (never reuses) held candidates.

    {b Reclamation rule}: a locator may be recycled only once its
    owner's status is decided {e and} it is unlinked from the variable
    — in practice, by the writer whose CAS displaced it (or for a
    locator that lost its install CAS and was never published).  A
    still-published locator must never be recycled: concurrent readers
    resolve values through it.

    A variable is 18 words: the record, the locator cell, the
    committed locator and its generation, one inline reader slot and a
    [spill] cell.  The [spill] cell starts at a shared empty sentinel;
    a CAS installs the variable's own 15-word {e spill block} — three
    more reader slots and a reader overflow list — once, when a second
    live reader registers.  An installed block is never replaced.  TL2
    and a lone reader never install one.

    Visible readers register (inline slot, else a block slot, else the
    overflow list) {e before} they re-read the locator; a writer scans
    the inline slot and then the block after its install CAS, so either
    the writer sees the reader or the reader sees the writer's locator.
    Writers thus resolve read-write conflicts through the contention
    manager, matching the paper's conflict definition. *)

type 'a locator = {
  mutable owner : Txn.t;
  mutable old_v : 'a;
  mutable new_v : 'a;
  gen : int Atomic.t;
      (** Two-phase incarnation counter; odd while a refill is in
          flight, even once the incarnation is complete. *)
}

type spill
(** Spilled reader slots and the reader overflow list. *)

type 'a t = {
  id : int;
  loc : 'a locator Atomic.t;
  reader : Txn.t Atomic.t;  (** The inline reader slot. *)
  spill : spill Atomic.t;  (** The shared empty sentinel until installed. *)
}

val make : 'a -> 'a t
(** A committed variable: 18 words, no spill block. *)

val id : 'a t -> int

val value_of_locator : 'a locator -> 'a
(** Value as seen by an outside observer (owner status read after the
    locator itself).  Only meaningful on a locator known stable —
    owned, hazard-protected, or seqlock-validated by the caller. *)

val peek : 'a t -> 'a
(** Latest committed value, for non-transactional inspection (tests,
    debugging); linearizes at the atomic load of the locator
    (seqlock-guarded against concurrent recycling). *)

val unsafe_init : 'a t -> 'a -> unit
(** Non-transactional store into the variable's own locator (made a
    committed-sentinel locator; allocates nothing), for bulk preloading
    {e before} the variable is published to any transaction.  Bypasses
    conflict detection on both backends: unsound the moment a
    concurrent transaction may have read the variable. *)

(** {2 Locator pool (per-domain freelist + hazard slot)} *)

type pool
(** A domain's locator freelist and hazard slot.  Only ever used by
    the owning domain, except that other domains' freelist pops read
    the hazard slot. *)

val domain_pool : unit -> pool
(** The calling domain's pool (created on first use; shared by every
    runtime on the domain). *)

val take_locator : pool -> owner:Txn.t -> old_v:'a -> new_v:'a -> 'a locator
(** A locator owned by [owner] with the given value slots (tentative
    value preset before publication); refilled from the freelist when
    possible, freshly allocated otherwise.  {!last_take_hit} reports
    which (out-of-band, so the hot path allocates no tuple). *)

val last_take_hit : pool -> bool
(** Whether the most recent {!take_locator} on this pool was a
    freelist refill. *)

val recycle_locator : pool -> 'a locator -> bool
(** Return a locator to the freelist.  Caller must uphold the
    reclamation rule: owner decided, and unlinked (displaced by the
    caller's CAS, or never published).  [false] when the pool was full
    and the locator was dropped for the GC. *)

val protect : pool -> 'a locator -> unit
(** Publish the locator in this domain's hazard slot.  After a
    subsequent check that it is still linked, its fields are frozen
    until {!unprotect}. *)

val unprotect : pool -> unit
(** Clear this domain's hazard slot. *)

val locator_gen : 'a locator -> int
(** Current incarnation of the locator (seqlock read protocol: load
    locator, load generation — retry if {!gen_stable} says it is odd —
    read fields, re-check generation). *)

val gen_stable : int -> bool
(** Whether a generation value is even, i.e. no refill was in flight
    when it was read.  Fields read under an odd generation may mix
    incarnations and must be discarded. *)

val pool_size : pool -> int
(** Number of locators currently on the freelist (tests). *)

val hazard_slot_count : unit -> int
(** Number of registered hazard slots — one per live domain that has
    used a pool; slots are unregistered at domain exit (tests). *)

(** {2 Visible readers} *)

val register_reader : 'a t -> Txn.t -> unit
(** Add a visible reader: the inline slot if it is free or dead, else
    the spill block (installed on the first second live reader).
    Reclaims dead slots lazily; allocation-free apart from that one
    install while the slots suffice.  May leave a duplicate entry for a
    re-reading transaction (benign: writers drain every live entry). *)

val find_active_reader : 'a t -> Txn.t -> Txn.t option
(** First active reader other than the given transaction, scanning the
    inline slot and then the spill block. *)

val purge_readers : 'a t -> unit
(** Opportunistically drop dead reader entries, inline and spilled
    (single pass; no CAS when nothing died). *)

val spilled : 'a t -> bool
(** Whether the variable's spill block is installed (tests). *)

val reader_entries : 'a t -> int
(** Reader entries currently registered, live or dead, inline, in
    block slots and in the overflow list (tests). *)
