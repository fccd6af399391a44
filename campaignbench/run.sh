#!/usr/bin/env bash
# Builds campaignbench from the source tree it sits in and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Run it
# from the repository root. The Go build cache, temporary files and every
# file the benchmark writes stay under .bench_build/ in the current
# directory.
set -euo pipefail

pkg=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/campaignbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$pkg" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" --out "$out/runs" "$@"
