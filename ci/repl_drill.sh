#!/usr/bin/env bash
# Replication drill for fpm::repl: configures (once) and builds the
# ASan+UBSan tree, then runs every test labelled `repl` — the
# ReplicationLog catch-up suites, the fresh-join, restart and
# ahead-of-primary tests, read-only serving, hostile primaries, the
# repl.* fault-point chaos drill and the fork()+SIGKILL
# primary-failover drill — under the sanitizers.  This
# is the exact command documented in docs/operations.md and
# docs/replication.md; keep them in sync.
#
# Usage: ci/repl_drill.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-asan}"
jobs="${FPMPART_BUILD_JOBS:-2}"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -B "$build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFPMPART_SANITIZE=address,undefined
fi

cmake --build "$build" -j "$jobs"
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "$build" -L repl --output-on-failure -j 1
