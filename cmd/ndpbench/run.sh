#!/usr/bin/env bash
# Builds ndpbench from the checkout's sources and runs it with the given
# flags. Run it from the root of the checkout, for example:
#
#   bash cmd/ndpbench/run.sh -workload stream-reconfig -seed 1 -seconds 15 -trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout; the build never touches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off

go -C cmd/ndpbench build -o "$out/bin/ndpbench" .
exec "$out/bin/ndpbench" "$@"
