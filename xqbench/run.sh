#!/bin/sh
# Builds the benchmark and the xqview binary from the checkout it is run in,
# then runs the benchmark with the given arguments. Run it from the root of
# the repository:
#
#   sh xqbench/run.sh --workload point-update --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and temporary file stays under .bench_build
# in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/xqbench" build -o "$out/xqbench" .
go build -o "$out/xqview" ./cmd/xqview
exec "$out/xqbench" -bin "$out/xqview" -workdir "$out" "$@"
