#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload from the
# repository root, e.g.
#
#   bash bench/run.sh --workload mine-crowd --seed 1 --seconds 32 --trace 0
#
# Every build product and Go cache stays under .bench_build/ at the
# repository root, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/oassis-bench" .
cd "$root"
exec "$out/oassis-bench" "$@"
