#!/usr/bin/env bash
# Builds the campaign benchmark and campaignd from this checkout into
# .bench_build/ and runs the benchmark from the checkout root:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 25 --trace 0
#
# All Go build state (cache, module cache, config) stays under
# .bench_build/. Outside a full checkout the build fails and so does this
# script, without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/campaignd" faultsec/cmd/campaignd) >&2
exec "$out/perfbench" "$@"
