#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash matscalebench/run.sh --workload sweep-manyrank --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all go to .bench_build too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$bench" && go build -o "$out/matscalebench" .) >&2
exec "$out/matscalebench" "$@"
