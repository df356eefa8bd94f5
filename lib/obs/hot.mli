(** Hot-key tracking: one {!Sketch} per (family, domain), fed from the
    conflict verdicts of both runtime backends (tvar ids on the
    locator runtime, orec stripe indices on TL2) and the simulator's
    access-conflict check (object ids).  Only the owning domain
    records into a sketch — the record path is the [tcm.metrics]
    enabled gate plus one O(k) scan — and {!snapshot} merges across
    domains with {!Sketch.merge}.  A domain's sketches fold into
    per-family retired entries at its exit. *)

type t
(** A family handle for one domain; creating it allocates no sketch. *)

val for_manager : ?k:int -> ?backend:string -> runtime:string -> string -> t
(** [k] (default 32) is the capacity of a sketch this handle creates. *)

val record : t -> int -> unit
(** Count one conflict on a key.  Gated on [Tcm_metrics.enabled]; the
    handle's first enabled record attaches the recording domain's
    sketch for the family (created on first use, then shared by every
    handle of the family on that domain, so repeated runs keep
    accumulating into one sketch).  A handle then stays with that
    domain. *)

val sketches : unit -> int
(** Live sketches, over all families and domains.  A domain's sketches
    are merged into their family's retired entries at its exit, so
    joined domains leave none behind. *)

type family = { backend : string; manager : string; runtime : string }

val snapshot : unit -> (family * Sketch.entry list) list
(** Per-family merge of the live sketches and the retired entries of
    exited domains, families sorted by
    (backend, manager, runtime); families whose merge is empty are
    dropped.  Concurrent recording makes the read benignly racy, as
    with metric snapshots. *)

val top : ?n:int -> unit -> (family * Sketch.entry list) list
(** {!snapshot} truncated to the [n] (default 10) hottest keys per
    family. *)

val pp : ?n:int -> Format.formatter -> (family * Sketch.entry list) list -> unit
(** The "hot keys" table (Health-report style): one line per family,
    keys as [key:count(±err)]. *)

val reset : unit -> unit
