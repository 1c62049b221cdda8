package ipleasing

// End-to-end determinism contract for the sharded inference engine: the
// full pipeline output — every inference in result order, plus the
// rendered Table 1 — must be byte-identical at any GOMAXPROCS. Unlike
// perf_test.go's csvOf, the serialized result here is deliberately NOT
// sorted: the point is that sharding preserves the result's intrinsic
// registry-then-prefix ordering, not merely its contents.

import (
	"bytes"
	"runtime"
	"testing"

	"ipleasing/internal/core"
	"ipleasing/internal/report"
)

// rawResultBytes serializes a result exactly as produced: the unsorted
// CSV pins per-inference order and fields, Table 1 pins the aggregates.
func rawResultBytes(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, res.All()); err != nil {
		t.Fatal(err)
	}
	report.Table1(&buf, res)
	return buf.String()
}

func TestInferDeterminismAcrossGOMAXPROCS(t *testing.T) {
	ds := genTestDataset(t, 13)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	// The GOMAXPROCS=1 run takes the serial inline path (one shard per
	// registry) and is the reference everything else must match.
	runtime.GOMAXPROCS(1)
	want := rawResultBytes(t, ds.Infer(Options{}))

	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		if got := rawResultBytes(t, ds.Infer(Options{})); got != want {
			t.Errorf("GOMAXPROCS=%d: output diverged from the serial run", procs)
		}
	}
}
