#!/usr/bin/env bash
# Builds dqnserve and the end-to-end benchmark from this checkout, then
# runs the benchmark. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload sim-fattree16 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, result records and traces all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dqnserve" || ! -d "$root/models" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/dqnserve and models/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off

go build -o "$out/dqnserve" ./cmd/dqnserve
go -C e2ebench build -o "$out/e2ebench" .

exec "$out/e2ebench" -root "$root" -serve-bin "$out/dqnserve" "$@"
