(** [tcm.obs]: cross-cutting conflict attribution.

    Sits on top of [tcm.trace] and [tcm.metrics] and below both
    runtime backends, the simulator and the service: {!Probe} is the
    one lifecycle handle those call at each transaction lifecycle
    point; {!Ledger} prices every abort and CM-induced wait in the
    cost model of Alistarh et al.'s "The Transactional Conflict
    Problem" and charges it to [{backend; manager; runtime}] x
    transaction class; {!Hot} keeps per-domain space-saving {!Sketch}es
    of the conflicting tvar / orec-stripe identities; {!Flight}
    snapshots the armed trace rings plus a ledger/hot summary into a
    JSONL bundle when a service SLO breaks.  The layer records exactly
    while [tcm.metrics] is enabled: one switch, one [Atomic.get] +
    branch when off (the default). *)

module Sketch = Sketch
module Ledger = Ledger
module Hot = Hot
module Probe = Probe
module Flight = Flight

(** Zero the metric store (which holds the ledger) and the hot-key
    sketches. *)
let reset () =
  Tcm_metrics.reset ();
  Hot.reset ()
