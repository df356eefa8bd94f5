(** The metric registry and its per-domain storage.

    Counters and histograms own fixed line-aligned runs of one
    {!Plane} slot per domain; the record path is a plain int store by
    the owning domain, one [Atomic.get] + branch when metrics are
    disabled (the default), and never allocates.  Registration
    deduplicates on (name, label set) under a mutex, so components may
    re-create handles freely. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every domain's counts and the retired total (all series).
    Registered metrics survive. *)

val set_class : int -> unit
(** Set the calling domain's transaction class ([0 .. Plane.line_words
    - 1]; anything else means 0).  A counter keeps one word per class
    and adds to the recording domain's current one. *)

module Counter : sig
  type t

  val create : ?help:string -> ?labels:(string * string) list -> string -> t
  (** Idempotent per (name, label set).
      @raise Invalid_argument if the series exists as a histogram. *)

  val cells : ?labels:(string * string) list -> string -> t
  (** A counter line kept out of {!snapshot}: per-class storage for a
      read-side view (the [tcm.obs] ledger) rather than a series. *)

  val incr : t -> unit
  val add : t -> int -> unit
end

module Histogram : sig
  type t

  val default_buckets : int
  (** 24: log2 buckets spanning [0, 2^23), last bucket unbounded. *)

  val create :
    ?help:string -> ?labels:(string * string) list -> ?buckets:int -> string -> t

  val observe : t -> int -> unit
  (** Record one sample (negative samples count in bucket 0 and add
      nothing to the sum). *)
end

type totals
(** Every domain's counts merged at one point in time. *)

val totals : unit -> totals

val class_value : totals -> Counter.t -> int -> int
(** [class_value t c cls]: the counter's word for class [cls]. *)

val snapshot : unit -> Snapshot.t
(** Merge every domain's counts into a point-in-time snapshot.  Safe
    to call concurrently with recording: a concurrent snapshot may lag
    a few events, never reports a total below an earlier snapshot's,
    and one ordered after the recording domains joined is exact. *)
