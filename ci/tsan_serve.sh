#!/usr/bin/env bash
# ThreadSanitizer job for the serving stack: configures (once) and
# builds the TSan tree, then runs every test labelled `serve`, `adapt`,
# `store` or `repl` — the reactor-pool, protocol, fault-injection,
# adaptation, durable-store and replication suites — under TSan.  Its
# ctest line appears verbatim in docs/operations.md, which test_docs
# checks.
#
# Usage: ci/tsan_serve.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build-tsan}"
jobs="${FPMPART_BUILD_JOBS:-2}"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -B "$build" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFPMPART_TSAN=ON \
    -DFPMPART_WERROR=ON
fi

cmake --build "$build" -j "$jobs"
cd "$build"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest -L "serve|adapt|store|repl" --output-on-failure -j 1
