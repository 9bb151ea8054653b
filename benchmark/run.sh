#!/usr/bin/env bash
# Builds rfbench into build-bench/ at the repository root, then runs it with
# the given arguments (see benchmark/README.md):
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--runs K] [--smoke]
#
# Build output goes to stderr, so the last line on stdout is rfbench's.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no repository sources to build at $root" >&2
  exit 1
fi
# Compiler temporaries stay inside the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target rfbench -j "$(nproc)" >&2
exec "$build/rfbench" "$@"
