#!/usr/bin/env bash
# Builds nvdserve and the benchmark from the checkout it is run in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binaries,
# every daemon's data directory and the trace files all stay under
# .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
# With telemetry on (its default is "local"), the go command forks a
# detached telemetry process that outlives it. Turning telemetry off
# keeps every process the benchmark starts inside its own lifetime.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/nvdserve" ./cmd/nvdserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/nvdserve" -work "$out/work" "$@"
