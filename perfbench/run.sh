#!/usr/bin/env bash
# Builds the flow benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload table2|pseudo3d|array3x3 \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build artefact, the Go build cache
# and the toolchain's own state stay under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
