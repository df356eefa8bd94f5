(** [tcm.metrics]: always-on low-overhead metrics.

    {!Plane} is the repo's one cache-line-strided per-domain store;
    on it sits a global registry of named series — per-class counters
    and log2-bucketed histograms — with an O(1), allocation-free
    record path and a one-branch disabled fast path (the default).
    {!Conventions} defines the instrument set shared by the live STM
    runtime and the simulator; {!Sampler} turns periodic snapshots
    into throughput-over-time windows; {!Export} speaks Prometheus
    text format and JSONL; {!Health} renders the per-manager
    contention health table ([bin/tcm_metrics_cli.ml report]). *)

module Buckets = Buckets
module Snapshot = Snapshot
module Plane = Plane
module Core = Core
module Counter = Core.Counter
module Histogram = Core.Histogram
module Conventions = Conventions
module Sampler = Sampler
module Export = Export
module Health = Health

let enable = Core.enable
let disable = Core.disable
let enabled = Core.enabled
let reset = Core.reset
let snapshot = Core.snapshot
