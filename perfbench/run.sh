#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in
# the current directory. The build log goes to stderr; the benchmark's
# last line of stdout is its JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command's config file and telemetry counters live under the
# user config directory; keep them in the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Flush the build's writes now, so their writeback does not land in the
# measured window.
sync
exec "$out/perfbench" -workdir "$out" "$@"
