#!/usr/bin/env bash
# Builds the benchmark program from this tree and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache entry, temporary store and trace file
# lands under .bench_build/ in the repository root.
set -euo pipefail
work="$(pwd)/.bench_build/perfbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/modcache" "$work/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOMODCACHE="$work/modcache"
export XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$work/perfbench" .
exec "$work/perfbench" "$@"
