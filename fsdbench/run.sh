#!/usr/bin/env bash
# Builds the FSD benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash fsdbench/run.sh --workload hotspot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the trace files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/fsdbench/go.mod" ]; then
	echo "fsdbench: run from the root of a full checkout; the sources of repro are missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/fsdbench" && go build -o "$out/fsdbench" .)
exec "$out/fsdbench" "$@"
