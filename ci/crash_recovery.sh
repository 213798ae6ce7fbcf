#!/usr/bin/env bash
# Crash-recovery and memory-safety job for the durable model store,
# replication, the serving stack, partitioning and its callers: configures
# (once) and builds the ASan+UBSan tree, then runs every test labelled
# `store`, `repl`, `serve`, `part`, `app`, `paper` or `examples` under the
# sanitizers — the WAL framing,
# torn-tail/corrupt-snapshot recovery, write-ahead veto, fork()+SIGKILL
# crash and store-fault chaos suites, the model codec its records carry
# (test_model_io: the in-place parser fed mutated files), the repl
# drills (the ReplicationLog catch-up suites, the fresh-join, restart and
# ahead-of-primary tests, read-only serving, hostile primaries, the
# repl.* fault-point chaos drill, the fork()+SIGKILL primary-failover
# drill and the `fpmpart_serve` replica flag check), and the reactor's
# buffer handling (test_serve, test_serve_reactor, test_protocol,
# test_fault and test_loadgen), and the partitioning suites (speed
# functions and their envelopes, the FPM solve, rounding, layouts, the
# iterative and hierarchical partitioners, the partitioning fuzz), and
# the code that runs the plans: the app-layer suites, the paper benches
# and the examples, which hold plans by reference.  Its ctest line
# appears verbatim in docs/operations.md, which test_docs checks.
#
# Usage: ci/crash_recovery.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-asan}"
jobs="${FPMPART_BUILD_JOBS:-2}"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -B "$build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFPMPART_SANITIZE=address,undefined \
    -DFPMPART_WERROR=ON
fi

cmake --build "$build" -j "$jobs"
cd "$build"
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
  ctest -L "store|repl|serve|part|app|paper|examples" --output-on-failure -j 1
