# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test bench-smoke metrics-smoke write-smoke tl2-smoke service-smoke obs-smoke cm-smoke sim-smoke bench ci clean

# Perf-trajectory point number: `make bench N=2` writes BENCH_2.json.
N ?= 1

all: build

# @all includes examples/, so example rot is caught by tier-1.
build:
	dune build @all

test:
	dune runtest

# Quick end-to-end bench including the --json/--trace emitters, the
# analyzer CLI over the captured trace, and the read-cost A/B probe;
# used as a smoke test so none of those paths can rot.
bench-smoke:
	dune build @bench-smoke

# Short capture with tcm.metrics enabled, pushed through the metrics
# CLI (health report, Prometheus conversion with parse-back, series).
metrics-smoke:
	dune build @metrics-smoke

# Allocation regression gate: minor words per committed transaction on
# the pooled write path must stay under the budget in write_cost.ml,
# turning tcm.metrics on must not add any, and Tvar.make must allocate
# exactly its 18 words per variable.
write-smoke:
	dune build @write-smoke

# Same gate through the TL2 backend, plus the TL2-vs-locator relative
# allocation check (the second backend must not allocate more).
tl2-smoke:
	dune build @tl2-smoke

# Open-loop service sweep on both backends across the full manager
# registry, with the JSON dump pushed through the tcm-bench/7 schema
# validator (bin/tcm_service.exe validate).
service-smoke:
	dune build @service-smoke

# Forced-overload service run with the flight recorder armed: bundles
# must land and round-trip through the tcm_obs.exe inspector, and the
# allocation/read-cost gates must still pass with tcm.metrics (and so
# tcm.obs) disabled.
obs-smoke:
	dune build @obs-smoke

# Consult-path allocation/latency gate: every registered manager's
# resolve loop must allocate zero minor words (an exact count) and stay
# within the latency band, on both backends (bench/consult_cost.ml).
cm-smoke:
	dune build @cm-smoke

# Simulator record smoke: the makespan demo, the adversarial chain table
# and a chain timeline, all read from a run's trace events, diffed
# against their expected output in test/sim_smoke.
sim-smoke:
	dune build @sim-smoke

# Full bench, regenerating the committed perf trajectory point
# (closed-loop sweeps plus the open-loop service figures, the
# conflict-attribution entries and the consult-cost microbench on
# both backends).
bench:
	dune exec bench/main.exe -- --quick --no-micro --service --obs --consult --backend both --json BENCH_$(N).json

ci: build test bench-smoke metrics-smoke write-smoke tl2-smoke service-smoke obs-smoke cm-smoke sim-smoke

clean:
	dune clean
