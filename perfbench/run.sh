#!/usr/bin/env bash
# Builds the benchmark and floptd from the flopt checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload compile-simulate --seed 1 --seconds 24 --trace 0
#
# Build outputs and the Go build cache live under .perfbench_build/ and
# run artefacts (results, span files, daemon data dirs) under
# .perfbench_out/, both inside the checkout.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/floptd" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a flopt checkout (go.mod, cmd/floptd and internal/ not found in $root)" >&2
	exit 2
fi

out="$root/.perfbench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/floptd" ./cmd/floptd
(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -floptd "$out/floptd" "$@"
