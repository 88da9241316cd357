#!/usr/bin/env bash
# Builds perfbench and the lclgrid binary from this checkout's sources
# into .bench_build/ and runs perfbench with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-warm --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --report --seeds 1-10 --sets 2 --seconds 15
#
# Every build artefact (Go build cache included) stays under
# .bench_build/, so the benchmark reads and writes only inside the
# checkout. Build output goes to stderr: perfbench's result is the last
# line of stdout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# With telemetry on (the default "local" mode) every go command may fork
# a detached upload process that outlives the build. Turning it off first
# keeps the benchmark from leaving anything running.
go telemetry off >&2
go build -buildvcs=false -o "$out/lclgrid" ./cmd/lclgrid >&2
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --bin "$out/lclgrid" "$@"
