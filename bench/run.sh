#!/usr/bin/env bash
# Builds parmbench from source and runs it with the given arguments, from the
# root of the checkout. The Go build cache, temporary files and the binary all
# stay under .bench_build/, so nothing is written outside the checkout.
#
#   bash bench/run.sh --workload fig6_mixed_cycle --seed 42 --seconds 15 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C "$root/bench" build -o "$build/bin/parmbench" ./parmbench
cd "$root"
exec "$build/bin/parmbench" "$@"
