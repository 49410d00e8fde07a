#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given flags, from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, telemetry) stays under .bench_build/ in the
# checkout, and nothing is downloaded: outside a full checkout the build, and
# with it this script, fails.
#
#	bash bench/run.sh -workload table1 -seed 1
#	bash bench/run.sh -workload all -out .bench_build/a
#	bash bench/run.sh -compare .bench_build/a/results.json .bench_build/b/results.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
