(** The SLO-breach flight recorder.  The service keeps the [tcm.trace]
    rings armed; this module watches per-class SLO attainment and the
    shed rate, and on a breach atomically snapshots the recent event
    window (the rings drained since the last bundle) together with a
    ledger and hot-key summary into a timestamped JSONL bundle —
    "what the runtime looked like when the SLO broke".

    Triggers (checked under a mutex, so the hot paths only pay when
    the service accounting already holds it):
    - ["slo_breach"]: over a tumbling window of [window] completions
      of one class, the missed fraction reached [miss_frac];
    - ["shed_spike"]: [shed_spike] admission-queue drops accumulated
      since the last bundle.

    Bundles are rate-limited to one per [min_interval_s] and capped at
    [max_bundles] per recorder; each is written to a temporary file
    and renamed into place, so a concurrent reader never observes a
    half-written bundle. *)

type t

val create :
  ?window:int ->
  ?miss_frac:float ->
  ?shed_spike:int ->
  ?min_interval_s:float ->
  ?max_bundles:int ->
  dir:string ->
  tag:string ->
  unit ->
  t
(** Defaults: [window] 64, [miss_frac] 0.5, [shed_spike] 64,
    [min_interval_s] 0.25, [max_bundles] 16.  Creates [dir] if
    missing. *)

val note_completion : t -> cls:string -> within_slo:bool -> unit
val note_drop : t -> unit

val force : t -> trigger:string -> unit
(** Dump a bundle unconditionally (ignores rate limit and cap); used
    by the smoke test and at end-of-run to flush the final window. *)

val count : t -> int
(** Bundles written so far. *)

val dir : t -> string

(** {1 Bundles on disk} *)

val schema : string
(** ["tcm-flight/1"]: line 1 a header
    [{schema; tag; trigger; unix_ms; events; drops}], then one line
    per record, discriminated by a ["rec"] field —
    ["ledger"] rows, ["hot"] entries, ["event"]s written and read by
    the [tcm-trace/1] event codec ({!Tcm_trace.Export.output_event}). *)

type bundle = {
  b_tag : string;
  b_trigger : string;
  b_unix_ms : int;
  b_events : Tcm_trace.Event.t array;
  b_drops : int;
  b_ledger : Ledger.row list;
  b_hot : (Hot.family * Sketch.entry list) list;
}

val read_bundle : string -> bundle
(** @raise Failure naming the file (and line) on malformed input or
    an unknown schema. *)

val bundles : string -> string list
(** The [flight-*.jsonl] paths under a directory, sorted (i.e. in
    write order — the timestamp leads the filename). *)
