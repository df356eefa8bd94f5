(** Point-in-time aggregation of the metric registry: plain data, keyed
    by (name, canonical label set).  Values add pointwise, so {!merge}
    is associative and commutative; {!diff} produces windowed deltas. *)

type hist = { counts : int array; sum : int }
(** [counts.(i)] samples in log2 bucket [i] (see {!Buckets}); [sum]
    the total of raw samples. *)

type value = Counter of int | Histogram of hist

type entry = {
  name : string;
  labels : (string * string) list;  (** Sorted (canonical). *)
  help : string;
  value : value;
}

type t = { time : float; entries : entry list }

val empty : t
val canon_labels : (string * string) list -> (string * string) list
val key : entry -> string * (string * string) list
val label : entry -> string -> string option

val find : t -> name:string -> labels:(string * string) list -> entry option
(** Exact match on name and canonicalized label set. *)

val counter_value : t -> name:string -> labels:(string * string) list -> int
(** 0 when the series is absent. *)

val hist_value : t -> name:string -> labels:(string * string) list -> hist option
val hist_count : hist -> int

val hist_sum : hist -> int
(** Exact total of the raw samples (for [tcm_wait_duration], the [tcm.obs] ledger's wait cost). *)

val hist_percentile : hist -> float -> float
(** See {!Buckets.percentile}; [nan] when empty. *)

val hist_mean : hist -> float

val merge : t -> t -> t
(** Pointwise sum; series present in only one operand pass through.
    @raise Invalid_argument when a series changes kind. *)

val diff : earlier:t -> later:t -> t
(** [later - earlier] pointwise, clamped at zero. *)
