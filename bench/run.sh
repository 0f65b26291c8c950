#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it). Run from the root
# of a checkout: builds this package and cmd/pdpd from source into
# .bench_build/ inside the checkout -- Go's build cache and temp files
# included, so nothing is read or written outside it -- then runs bench
# with the arguments given.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
go build -C "$root" -o "$build/bin/pdpd" ./cmd/pdpd
exec "$build/bin/bench" -pdpd "$build/bin/pdpd" "$@"
