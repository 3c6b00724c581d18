#!/usr/bin/env bash
# Builds fovserver and the benchmark harness from the tree under test,
# then runs one benchmark workload:
#
#   bash e2ebench/run.sh --workload query-city --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under .bench_build/ in that root (Go build cache, HOME
# and temporary files included).
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fovserver" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/fovserver and e2ebench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$out/fovserver" ./cmd/fovserver
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -bin "$out/fovserver" -work "$out" "$@"
