#!/usr/bin/env bash
# Builds cmd/leased and the benchmark program from this checkout, then
# runs one benchmark pass:
#
#   bash perfbench/run.sh --workload lookup-single --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout root: the Go build cache, the binaries, the seeded inputs
# and each run's daemon state.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/leased ]]; then
	echo "perfbench: $root holds no ipleasing sources to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go build -o "$out/leased" ./cmd/leased
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -leased "$out/leased" "$@"
