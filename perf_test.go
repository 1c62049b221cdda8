package ipleasing

// Correctness tests for the performance layer: the parallel dataset
// loader, the shared table freeze and the per-region memos must be
// invisible in the output under concurrency. The memos' results are
// checked against an independent reference classifier in
// internal/refclassify (TestInferCacheEquivalence,
// TestAblationCacheEquivalence).

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func genTestDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	w := Generate(Config{Seed: seed, Scale: 0.01})
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// csvOf renders a result's sorted inferences through the stable CSV
// export, the byte-level determinism contract.
func csvOf(t *testing.T, res *Result) string {
	t.Helper()
	infs := res.All()
	SortInferences(infs)
	path := filepath.Join(t.TempDir(), "inferences.csv")
	if err := WriteInferencesCSV(path, infs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestConcurrentLoadAndInfer exercises the loader fan-out, the shared
// Freeze, and the per-region memos under the race detector: several
// goroutines load the same directory and infer over both shared and
// private datasets simultaneously.
func TestConcurrentLoadAndInfer(t *testing.T) {
	shared := genTestDataset(t, 11)
	want := csvOf(t, shared.Infer(Options{}))

	const goroutines = 4
	results := make([]string, 2*goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() { // concurrent Infer over the one shared dataset
			defer wg.Done()
			results[i] = csvOf(t, shared.Infer(Options{}))
		}()
		wg.Add(1)
		go func() { // concurrent LoadDataset + private Infer
			defer wg.Done()
			ds, err := LoadDataset(shared.Dir)
			if err != nil {
				t.Error(err)
				return
			}
			results[goroutines+i] = csvOf(t, ds.Infer(Options{}))
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, got := range results {
		if got != want {
			t.Fatalf("concurrent run %d diverged from serial result", i)
		}
	}
}
