#!/bin/sh
# Full verification gate: gofmt, vet, build, the test suite under the race
# detector, then the benchmark gate (cmd/benchgate), which checks every
# committed BENCH_*.json baseline and absolute bound.
# Usage: scripts/check.sh [-quick]
#   -quick runs the suite without the race detector, then only the
#   race-gated packages below with it.
set -eu

cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "-quick" ] && quick=1

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# perfbench is its own Go module (replace ipleasing => ../), so the
# root ./... patterns above never compile it: vet and test it here so
# an API change that breaks the fleet benchmark fails this gate.
echo "== perfbench: go vet + go test (separate module)"
(cd perfbench && go vet ./... && go test ./...)

if [ "$quick" = "0" ]; then
	echo "== go test -race ./..."
	go test -race ./...
else
	echo "== go test ./..."
	go test ./...
	# Race-gated even in -quick mode, because what they prove is
	# cross-goroutine correctness: snapshot swaps, the reload breaker and
	# request limiter (serve), the worker pool (par), the load-diagnostics
	# collector (diag), the metrics registry and tracing plane
	# (telemetry), mapping lifetimes and the SIGKILL matrix (snapstore),
	# the daemon's cold snapshot, serving generation and poll loop
	# (daemon), the fault proxy and load generator (chaos, loadgen), the
	# live fleet storms (leasestorm), and the delta path's shared segment
	# slices and the snapshot fault matrix (the root package).
	echo "== go test -race (race-gated packages)"
	go test -race . ./internal/serve ./internal/par ./internal/diag ./internal/telemetry \
		./internal/snapstore ./internal/daemon ./internal/chaos ./internal/loadgen ./cmd/leasestorm
fi

# Shard-scaling display run: same benchmark at 1, 4, and 8 workers.
# Display-only — the numbers only mean "speedup" on a machine with that
# many physical CPUs, so no baseline records them.
echo "== BenchmarkInferRegion shard scaling (-cpu 1,4,8; display only)"
go test -run '^$' -bench 'BenchmarkInferRegion$' -benchtime 100x -cpu 1,4,8 ./internal/core | grep -E '^(Benchmark|PASS|ok)' || true

echo "== benchmark gate (cmd/benchgate)"
go run ./cmd/benchgate
