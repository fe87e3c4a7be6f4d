#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload serve_cold -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write (Go build cache, temp dirs,
# journals, traces) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
