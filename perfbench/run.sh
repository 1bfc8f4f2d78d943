#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload prio-corpus --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file goes under .bench_build
# in the current directory; nothing outside it is written. Without the
# repository's own sources next to perfbench/ the build fails and the
# script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
