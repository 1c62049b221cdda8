package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// healthy is captured go test -bench output for every benchmark in the
// table, one run in which every gate passes: the WHOIS load and snapshot
// encode/decode lines carry SetBytes' MB/s column, the rest do not.
const healthy = `goos: linux
goarch: amd64
pkg: ipleasing
BenchmarkLoadDataset-2             	      18	  79441333 ns/op	40266661 B/op	  156191 allocs/op
BenchmarkTable1-2                  	     313	   3670356 ns/op	 2596699 B/op	    1873 allocs/op
BenchmarkWHOISLoad-2               	     112	  11591347 ns/op	 264.00 MB/s	 7521919 B/op	   24248 allocs/op
BenchmarkFullReload-2              	      16	  91349319 ns/op	48019527 B/op	  174033 allocs/op
BenchmarkServingReload-2           	      30	  51780028 ns/op	30395364 B/op	  144732 allocs/op
BenchmarkDeltaReload-2             	      91	  15666634 ns/op	 5576205 B/op	   16846 allocs/op
BenchmarkInferBuild-2              	     135	  10231269 ns/op	 5288589 B/op	   16901 allocs/op
BenchmarkInferRegion-2             	    1266	    804107 ns/op	  487972 B/op	     232 allocs/op
BenchmarkSnapshotEncode-2          	     135	   9089756 ns/op	 397.51 MB/s	10287092 B/op	     243 allocs/op
BenchmarkSnapshotDecode-2          	     482	   2093217 ns/op	1726.19 MB/s	 2651426 B/op	      42 allocs/op
BenchmarkSnapshotColdStart-2       	     357	   3152223 ns/op	 4700688 B/op	      54 allocs/op
BenchmarkSnapshotMmapColdStart-2   	    1202	   1138698 ns/op	  227105 B/op	      48 allocs/op
BenchmarkLookupAddr-2              	 2000000	        42.42 ns/op	       0 B/op	       0 allocs/op
BenchmarkLookupBatch-2             	    5000	     33706 ns/op	       0 B/op	       0 allocs/op
BenchmarkHandlerLookup-2           	  242005	      4377 ns/op	     656 B/op	       6 allocs/op
BenchmarkHandlerLookupBatch-2      	     654	   1723132 ns/op	  210485 B/op	    1037 allocs/op
BenchmarkFleetLookup-2             	   17612	     66387 ns/op	    8117 B/op	      91 allocs/op
BenchmarkFleetTable1-2             	   20954	     53527 ns/op	    8022 B/op	      89 allocs/op
BenchmarkCounterInc-2              	186861103	         6.203 ns/op	       0 B/op	       0 allocs/op
BenchmarkCounterVecWith-2          	40212076	        29.31 ns/op	       0 B/op	       0 allocs/op
BenchmarkHistogramObserve-2        	64747426	        19.29 ns/op	       0 B/op	       0 allocs/op
BenchmarkTraceDecisionUnsampled-2  	36275430	        36.95 ns/op	       0 B/op	       0 allocs/op
BenchmarkWritePrometheus-2         	   15909	     98204 ns/op	   35962 B/op	    1016 allocs/op
PASS
ok  	ipleasing	42.1s
`

// fresh parses healthy, then replaces each named benchmark's result
// with the one doctored line given for it.
func fresh(doctored ...string) map[string]result {
	results := map[string]result{}
	parse(healthy, results)
	for _, line := range doctored {
		one := map[string]result{}
		parse(line, one)
		for name, r := range one {
			results[name] = r
		}
	}
	return results
}

// baselines writes healthy's numbers as every baseline file in a fresh
// directory, through the gate's own seeding path.
func baselines(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := seed(dir, fresh()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// verdictFor returns the one verdict whose message starts with prefix.
func verdictFor(t *testing.T, vs []verdict, prefix string) verdict {
	t.Helper()
	var found []verdict
	for _, v := range vs {
		if strings.HasPrefix(v.msg, prefix) {
			found = append(found, v)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d verdicts start with %q, want 1: %+v", len(found), prefix, found)
	}
	return found[0]
}

func TestParseByUnitMinOfNAndSuffix(t *testing.T) {
	out := `BenchmarkSnapshotEncode-8   	 120	  9500000 ns/op	 380.00 MB/s	10287000 B/op	 250 allocs/op
BenchmarkSnapshotEncode-8   	 135	  9089756 ns/op	 397.51 MB/s	10287092 B/op	 243 allocs/op
BenchmarkSnapshotEncode-8   	 130	  9089756 ns/op	 397.51 MB/s	10287092 B/op	 999 allocs/op
BenchmarkCounterInc         	186861103	 6.203 ns/op	 0 B/op	 0 allocs/op
BenchmarkOutput-8
--- FAIL: BenchmarkBroken
`
	results := map[string]result{}
	parse(out, results)
	enc := results["BenchmarkSnapshotEncode"]
	if enc[""] != "135" || enc[nsOp] != "9089756" || enc[bytesOp] != "10287092" || enc[allocsOp] != "243" {
		t.Errorf("SnapshotEncode = %v; want the first fastest repetition, values read by unit", enc)
	}
	if got := results["BenchmarkCounterInc"][nsOp]; got != "6.203" {
		t.Errorf("CounterInc without a -N suffix: ns/op %q, want 6.203", got)
	}
	if len(results) != 2 {
		t.Errorf("parsed %d benchmarks, want 2: %v", len(results), results)
	}
}

func TestHealthyRunPasses(t *testing.T) {
	vs := check(baselines(t), fresh())
	if len(vs) != 23+10 {
		t.Errorf("%d verdicts, want 23 drift + 10 absolute", len(vs))
	}
	for _, v := range vs {
		if !v.ok {
			t.Errorf("healthy run failed: %s", v.msg)
		}
	}
}

func TestDriftGate(t *testing.T) {
	dir := baselines(t)
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		// ns/op: baseline 4377 × 1.25 = 5471.25.
		{"BenchmarkHandlerLookup 1 5471 ns/op 656 B/op 6 allocs/op", true},
		{"BenchmarkHandlerLookup 1 5472 ns/op 656 B/op 6 allocs/op", false},
		// allocs/op: baseline 6 × 1.25 + 0.5 = 8.
		{"BenchmarkHandlerLookup 1 4377 ns/op 656 B/op 8 allocs/op", true},
		{"BenchmarkHandlerLookup 1 4377 ns/op 656 B/op 9 allocs/op", false},
		// A zero-alloc baseline: the half does not admit a first alloc.
		{"BenchmarkLookupBatch 1 33706 ns/op 0 B/op 0 allocs/op", true},
		{"BenchmarkLookupBatch 1 33706 ns/op 0 B/op 1 allocs/op", false},
		// 89 × 1.25 + 0.5 = 111.75.
		{"BenchmarkFleetTable1 1 53527 ns/op 8022 B/op 111 allocs/op", true},
		{"BenchmarkFleetTable1 1 53527 ns/op 8022 B/op 112 allocs/op", false},
	} {
		name := strings.Fields(tc.line)[0]
		v := verdictFor(t, check(dir, fresh(tc.line)), "drift "+name+":")
		if v.ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v (%s)", tc.line, v.ok, tc.ok, v.msg)
		}
	}
}

func TestMissingFreshRowFails(t *testing.T) {
	results := fresh()
	delete(results, "BenchmarkInferRegion")
	v := verdictFor(t, check(baselines(t), results), "drift BenchmarkInferRegion: missing")
	if v.ok {
		t.Errorf("missing fresh row passed: %s", v.msg)
	}
	delete(results, "BenchmarkFullReload")
	for _, prefix := range []string{"BenchmarkDeltaReload", "BenchmarkServingReload", "BenchmarkSnapshotColdStart"} {
		if v := verdictFor(t, check(baselines(t), results), "gate "+prefix+" "); v.ok {
			t.Errorf("gate against a missing comparator passed: %s", v.msg)
		}
	}
}

// TestAbsoluteGates runs each of the ten absolute gates on a passing
// and a just-failing doctored line, and checks no other gate moves.
func TestAbsoluteGates(t *testing.T) {
	for _, tc := range []struct {
		gate       string // the gated benchmark and unit
		pass, fail string
	}{
		// Full reload 91349319 ns: 5x is 18269863.8.
		{"BenchmarkDeltaReload ns/op",
			"BenchmarkDeltaReload 91 18269863 ns/op 5576205 B/op 16846 allocs/op",
			"BenchmarkDeltaReload 91 18269864 ns/op 5576205 B/op 16846 allocs/op"},
		// Only 4x faster fails too.
		{"BenchmarkDeltaReload ns/op",
			"BenchmarkDeltaReload 91 15666634 ns/op 5576205 B/op 16846 allocs/op",
			"BenchmarkDeltaReload 91 22837330 ns/op 5576205 B/op 16846 allocs/op"},
		// 0.8 × 91349319 = 73079455.2.
		{"BenchmarkServingReload ns/op",
			"BenchmarkServingReload 30 73079455 ns/op 30395364 B/op 144732 allocs/op",
			"BenchmarkServingReload 30 73079456 ns/op 30395364 B/op 144732 allocs/op"},
		{"BenchmarkSnapshotColdStart ns/op",
			"BenchmarkSnapshotColdStart 357 18269863 ns/op 4700688 B/op 54 allocs/op",
			"BenchmarkSnapshotColdStart 357 18269864 ns/op 4700688 B/op 54 allocs/op"},
		// 11706907 / 5 = 2341381.4.
		{"BenchmarkSnapshotMmapColdStart ns/op",
			"BenchmarkSnapshotMmapColdStart 1202 2341381 ns/op 227105 B/op 48 allocs/op",
			"BenchmarkSnapshotMmapColdStart 1202 2341382 ns/op 227105 B/op 48 allocs/op"},
		// 54509 / 50 = 1090.18.
		{"BenchmarkSnapshotMmapColdStart allocs/op",
			"BenchmarkSnapshotMmapColdStart 1202 1138698 ns/op 227105 B/op 1090 allocs/op",
			"BenchmarkSnapshotMmapColdStart 1202 1138698 ns/op 227105 B/op 1091 allocs/op"},
		{"BenchmarkLookupAddr allocs/op",
			"BenchmarkLookupAddr 2000000 42.42 ns/op 0 B/op 0 allocs/op",
			"BenchmarkLookupAddr 2000000 42.42 ns/op 16 B/op 1 allocs/op"},
		{"BenchmarkHandlerLookup allocs/op",
			"BenchmarkHandlerLookup 242005 4377 ns/op 656 B/op 8 allocs/op",
			"BenchmarkHandlerLookup 242005 4377 ns/op 656 B/op 9 allocs/op"},
		{"BenchmarkCounterInc ns/op",
			"BenchmarkCounterInc 186861103 50 ns/op 0 B/op 0 allocs/op",
			"BenchmarkCounterInc 186861103 50.01 ns/op 0 B/op 0 allocs/op"},
		{"BenchmarkTraceDecisionUnsampled ns/op",
			"BenchmarkTraceDecisionUnsampled 36275430 100 ns/op 0 B/op 0 allocs/op",
			"BenchmarkTraceDecisionUnsampled 36275430 100.1 ns/op 0 B/op 0 allocs/op"},
		{"BenchmarkTraceDecisionUnsampled allocs/op",
			"BenchmarkTraceDecisionUnsampled 36275430 36.95 ns/op 0 B/op 0 allocs/op",
			"BenchmarkTraceDecisionUnsampled 36275430 36.95 ns/op 24 B/op 1 allocs/op"},
	} {
		bench, unit, _ := strings.Cut(tc.gate, " ")
		for _, line := range []string{tc.pass, tc.fail} {
			results := fresh(line)
			for _, s := range suites {
				for _, g := range s.gates {
					v := g.check(results)
					want := line == tc.pass || g.bench != bench || g.unit != unit
					if v.ok != want {
						t.Errorf("%s: gate %q ok=%v, want %v", line, v.msg, v.ok, want)
					}
				}
			}
		}
	}
}

func TestTableNamesEachBenchmarkOnce(t *testing.T) {
	seen := map[string]bool{}
	gates := 0
	for _, s := range suites {
		for _, r := range s.runs {
			for _, name := range r.benches {
				if seen[name] {
					t.Errorf("%s listed twice: results are keyed by name alone", name)
				}
				seen[name] = true
			}
		}
		gates += len(s.gates)
	}
	for _, s := range suites {
		for _, g := range s.gates {
			if !seen[g.bench] || (g.ref != "" && !seen[g.ref]) {
				t.Errorf("gate on %s/%s names a benchmark no run measures", g.bench, g.ref)
			}
		}
	}
	if len(seen) != 23 || gates != 10 {
		t.Errorf("table has %d benchmarks and %d gates, want 23 and 10", len(seen), gates)
	}
}

func TestPatternSelectsExactNames(t *testing.T) {
	r := run{benches: []string{"BenchmarkLookupAddr", "BenchmarkLookupBatch"}}
	if got, want := r.pattern(), "^(BenchmarkLookupAddr|BenchmarkLookupBatch)$"; got != want {
		t.Errorf("pattern = %q, want %q", got, want)
	}
}

// TestSeedNeverRewritesARow runs the gate on numbers that differ from
// the baselines but pass: every baseline file keeps its bytes.
func TestSeedNeverRewritesARow(t *testing.T) {
	dir := baselines(t)
	before := map[string][]byte{}
	for _, s := range suites {
		data, err := os.ReadFile(filepath.Join(dir, s.file))
		if err != nil {
			t.Fatal(err)
		}
		before[s.file] = data
	}
	results := fresh(
		"BenchmarkTable1 400 3000000 ns/op 2596699 B/op 1870 allocs/op",
		"BenchmarkLookupAddr 2000000 40.1 ns/op 0 B/op 0 allocs/op",
	)
	for _, v := range check(dir, results) {
		if !v.ok {
			t.Fatalf("doctored run failed: %s", v.msg)
		}
	}
	if err := seed(dir, results); err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		after, err := os.ReadFile(filepath.Join(dir, s.file))
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before[s.file]) {
			t.Errorf("%s rewritten:\n%s\nwas:\n%s", s.file, after, before[s.file])
		}
	}
}

// TestMissingBaselineRowSeeded deletes one row: the drift gate skips
// it, and seeding appends exactly that row, raw as go test printed it,
// after the untouched rows.
func TestMissingBaselineRowSeeded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_serve.json")
	kept := `{
  "BenchmarkLookupAddr": {"iterations": 2000000, "ns_per_op": 42.42, "bytes_per_op": 0, "allocs_per_op": 0},
  "BenchmarkLookupBatch": {"iterations": 5000, "ns_per_op": 33706, "bytes_per_op": 0, "allocs_per_op": 0},
  "BenchmarkHandlerLookupBatch": {"iterations": 654, "ns_per_op": 1723132, "bytes_per_op": 210485, "allocs_per_op": 1037}
}
`
	if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
	results := fresh()
	v := verdictFor(t, check(dir, results), "drift BenchmarkHandlerLookup: no baseline")
	if !v.ok {
		t.Errorf("missing baseline row failed: %s", v.msg)
	}
	if err := seed(dir, results); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSuffix(kept, "\n}\n") + ",\n" +
		`  "BenchmarkHandlerLookup": {"iterations": 242005, "ns_per_op": 4377, "bytes_per_op": 656, "allocs_per_op": 6}` + "\n}\n"
	if string(got) != want {
		t.Errorf("seeded file:\n%s\nwant:\n%s", got, want)
	}
	var rows map[string]baselineRow
	if err := json.Unmarshal(got, &rows); err != nil || len(rows) != 4 {
		t.Errorf("seeded file is not a 4-row JSON object (%d rows): %v", len(rows), err)
	}
	// The other suites had no file at all: each is created whole.
	for _, s := range suites {
		if _, err := os.Stat(filepath.Join(dir, s.file)); err != nil {
			t.Errorf("%s not created: %v", s.file, err)
		}
	}
}
