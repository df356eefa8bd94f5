(** Transaction descriptors.

    A {e logical transaction} corresponds to one call to
    [Stm.atomically].  It may run as several {e attempts}: when an
    attempt aborts, the runtime starts a new attempt of the same logical
    transaction.  Fields that the paper requires to survive aborts — the
    timestamp above all (Section 3: "when a transaction begins, it is
    given a timestamp which it retains even if it aborts and restarts")
    — live in the [shared] record, which all attempts of one logical
    transaction point to.  Per-attempt fields ([status], [waiting]) are
    fresh for every attempt, because enemies abort a specific attempt by
    CAS-ing its status word.

    The fields that carry the inter-transaction protocol — [status] and
    [waiting] — are [Atomic.t]: enemies CAS the status word, and the
    waiting flag is a cross-domain signal (Greedy Rule 1).  The
    heuristic counters ([priority], [aborts], [opens]) are plain
    mutable ints.  They are monotone advisory inputs to the contention
    managers, not synchronisation: an enemy comparing priorities may
    read a value that lags by a few increments, and Eruption's
    cross-domain pressure transfer may occasionally lose an update to
    a racing increment — both decide at worst a different but equally
    legitimate conflict verdict (the managers are heuristics over
    racy snapshots by design, Section 2's decentralised setting).
    Plain-int accesses cannot tear in OCaml, so the values read are
    always some value that was written. *)

type shared = {
  timestamp : int;
      (** Priority: smaller is older is higher-priority.  Retained
          across aborts, refreshed only for a new logical transaction. *)
  mutable priority : int;
      (** Accumulated priority used by Karma / Eruption / Polka:
          incremented on each successful object open, retained across
          aborts, reset on commit (by virtue of the logical transaction
          ending). Other managers ignore it. *)
  mutable aborts : int;
      (** Number of times this logical transaction was aborted. *)
  mutable opens : int;
      (** Number of successful object opens over all attempts. *)
  mutable cm_stamp : int;
      (** Manager-owned priority stamp, published through the shared
          descriptor so enemies can read it (the decentralised
          "public field" of Section 2).  [max_int] is the reserved
          "no stamp yet" sentinel; the STO-style adaptive manager
          stores its acquired global timestamp here once a transaction
          leaves the timid phase.  Plain int: advisory, racy-snapshot
          semantics like [priority]. *)
}

type t = {
  attempt_id : int;  (** Unique across all attempts of all transactions. *)
  status : Status.t Atomic.t;
  waiting : bool Atomic.t;
      (** Public flag: true while this attempt is blocked waiting for an
          enemy.  Greedy Rule 1 aborts enemies whose flag is set. *)
  shared : shared;
}

let new_shared () =
  {
    timestamp = Txid.next_timestamp ();
    priority = 0;
    aborts = 0;
    opens = 0;
    cm_stamp = max_int;
  }

let new_attempt shared =
  {
    attempt_id = Txid.next_attempt_id ();
    status = Atomic.make Status.Active;
    waiting = Atomic.make false;
    shared;
  }

(** Sentinel owner used for the initial locator of every tvar: a
    permanently committed transaction. *)
let committed_sentinel =
  let shared =
    { timestamp = 0; priority = 0; aborts = 0; opens = 0; cm_stamp = 0 }
  in
  {
    attempt_id = 0;
    status = Atomic.make Status.Committed;
    waiting = Atomic.make false;
    shared;
  }

let status t = Atomic.get t.status

(* Match, not [=]: polymorphic equality on variant constants is a
   runtime call, and these predicates sit on the hot path. *)
let is_active t = match status t with Status.Active -> true | _ -> false
let is_committed t = match status t with Status.Committed -> true | _ -> false
let is_aborted t = match status t with Status.Aborted -> true | _ -> false
let is_waiting t = Atomic.get t.waiting

let timestamp t = t.shared.timestamp
let priority t = t.shared.priority
let abort_count t = t.shared.aborts
let open_count t = t.shared.opens
let cm_stamp t = t.shared.cm_stamp
let set_cm_stamp t v = t.shared.cm_stamp <- v

(** Reserved [cm_stamp] value meaning "no manager stamp acquired". *)
let no_cm_stamp = max_int

(** [older_than a b] is true when [a] has higher (older) priority. *)
let older_than a b = timestamp a < timestamp b

(** Enemy-side abort.  Returns [true] if the attempt is aborted after
    the call (whether we did it or it already was). *)
let try_abort t =
  if Atomic.compare_and_set t.status Status.Active Status.Aborted then begin
    t.shared.aborts <- t.shared.aborts + 1;
    true
  end
  else is_aborted t

(** Owner-side commit.  Fails iff an enemy aborted us first. *)
let try_commit t = Atomic.compare_and_set t.status Status.Active Status.Committed

let add_priority t n = t.shared.priority <- t.shared.priority + n

let record_open t =
  t.shared.opens <- t.shared.opens + 1;
  t.shared.priority <- t.shared.priority + 1

let pp fmt t =
  Format.fprintf fmt "tx#%d[ts=%d;%a%s]" t.attempt_id (timestamp t) Status.pp
    (status t)
    (if is_waiting t then ";waiting" else "")
