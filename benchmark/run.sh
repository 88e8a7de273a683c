#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the work directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, the serve workload's data directories, and the span dumps.
set -euo pipefail

work=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$work"
work=$(cd "$work" && pwd)

export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath"
export XDG_CONFIG_HOME="$work/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
# Telemetry off, so no go invocation starts a background upload process.
[ -f "$XDG_CONFIG_HOME/go/telemetry/mode" ] || go telemetry off

(cd "$(dirname "$0")" && go build -buildvcs=false -o "$work/racebench" .)
export RACEBENCH_WORK="$work"
exec "$work/racebench" "$@"
