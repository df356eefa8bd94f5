(** Exporters — Prometheus text exposition format and JSONL — plus the
    matching parsers, so both formats can be machine-checked
    round-trip. *)

val schema : string
(** ["tcm-metrics/1"], carried in the JSONL header line. *)

(** {1 JSONL}

    One header line ([schema], snapshot [time], entry/window counts),
    then one line per series ([counter] / [histogram]) and one per
    sampler window. *)

val output_jsonl : ?windows:Sampler.window list -> out_channel -> Snapshot.t -> unit
val write_jsonl : ?windows:Sampler.window list -> string -> Snapshot.t -> unit

val read_jsonl : string -> Snapshot.t * Sampler.window list
(** @raise Failure naming the file and line on malformed input,
    [Sys_error] on I/O errors.  Help strings are not round-tripped
    (they are registry metadata). *)

(** {1 Prometheus} *)

val to_prometheus : Snapshot.t -> string
(** Text exposition format: HELP/TYPE headers, counters as plain
    samples, histograms as cumulative [_bucket] series (integer [le]
    edges from {!Buckets.upper_bound}, last bucket ["+Inf"]) plus
    [_sum] and [_count]. *)

val write_prometheus : string -> Snapshot.t -> unit

type prom_sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

val parse_prometheus : string -> prom_sample list
(** Parse exposition-format text back into flat samples (comments
    skipped); used by the round-trip tests and the CLI self-check.
    @raise Failure on lines the writer would never emit. *)
