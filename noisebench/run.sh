#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash noisebench/run.sh --workload serve-mix --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# go command's own state go to .bench_build/ in that root, so nothing is
# written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/noisebench" -o "$out/noisebench" .
exec "$out/noisebench" "$@"
