#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build products go to .bench_build/ at the checkout root; the dune
# cache and user configuration are left out, so nothing outside the
# checkout is read for the build or written.
set -eu
cd "$(dirname "$0")/.."
exec dune exec --root . --build-dir .bench_build --cache disabled --no-config \
  --display quiet -- ./benchmark/tcm_bench.exe "$@"
