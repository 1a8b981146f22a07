#!/usr/bin/env bash
# Builds the non-race tabledserver and tabledrouter from this checkout, plus
# the load generator in perfbench/, then runs the generator with the given
# arguments. Every build output, cache and temporary file stays under
# .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload direct-mixed --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --workload routed-semisync --runs 10
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/tabledserver ./cmd/tabledrouter >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -root "$root" "$@"
