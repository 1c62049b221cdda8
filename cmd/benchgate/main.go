// Command benchgate is the repository's benchmark gate. It runs every
// suite in the table below with go test -bench, keeps the fastest of
// each benchmark's repetitions, and checks it twice: against its
// committed BENCH_*.json baseline row (the drift gate) and against the
// absolute bounds its suite declares, which no baseline can relax. It
// prints every verdict and exits 1 if any gate failed.
//
// The drift gate fails a benchmark whose ns/op exceeds its baseline by
// more than 25%, or whose allocs/op exceeds baseline×1.25+0.5 (the half
// rounds the 25% allowance to whole allocations: a baseline of 6 admits
// 8). A benchmark missing from the fresh output fails; one
// missing from its baseline file passes and, when every gate passed, is
// written to the file. An existing row is never rewritten: to
// re-record a baseline, delete its row and run the gate again, so the
// new number arrives as a reviewable diff.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchgate
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

const (
	nsOp     = "ns/op"
	allocsOp = "allocs/op"
	bytesOp  = "B/op"
)

// A run is one go test -bench invocation.
type run struct {
	pkg       string
	benches   []string
	benchtime string
	count     int
}

// A gate bounds one measured value absolutely: bench's value in unit,
// times `times`, must not exceed limit — or, when ref names another
// benchmark, ref's value in the same unit times limit.
type gate struct {
	bench, unit string
	times       float64
	ref         string
	limit       float64
	why         string
}

// A suite is one baseline file, the runs that measure its rows, and
// the absolute gates on its numbers.
type suite struct {
	file  string
	runs  []run
	gates []gate
}

var suites = []suite{
	{
		file: "BENCH_core.json",
		// Time-based windows, not tiny fixed counts: BenchmarkTable1
		// allocates ~2.6MB/op, and a 3-iteration run finishes before GC
		// pressure builds, understating the sustained cost by ~40%.
		runs: []run{
			{".", []string{"BenchmarkTable1", "BenchmarkWHOISLoad", "BenchmarkLoadDataset", "BenchmarkFullReload", "BenchmarkServingReload", "BenchmarkDeltaReload", "BenchmarkInferBuild"}, "1s", 3},
			{"./internal/core", []string{"BenchmarkInferRegion"}, "1s", 3},
		},
		gates: []gate{
			{"BenchmarkDeltaReload", nsOp, 5, "BenchmarkFullReload", 1,
				"an incremental reload at 1% churn is at least 5x faster than the full reload"},
			{"BenchmarkServingReload", nsOp, 1, "BenchmarkFullReload", 0.8,
				"the serving-scoped reload parses only what the inference reads, so costs at most 0.8x the full reload"},
		},
	},
	{
		file: "BENCH_snapshot.json",
		// Count 5: the cold-start benches touch disk, and host-steal
		// bursts can outlast a 3-repetition window.
		runs: []run{
			{".", []string{"BenchmarkSnapshotEncode", "BenchmarkSnapshotDecode", "BenchmarkSnapshotColdStart", "BenchmarkSnapshotMmapColdStart"}, "1s", 5},
		},
		// The mapped open is held against the full reload it replaces,
		// at ratios that put its bounds at the committed BenchmarkFullReload
		// row (47.8 ms, 114,268 allocs) at 1.2 ms and 57 allocs.
		gates: []gate{
			{"BenchmarkSnapshotColdStart", nsOp, 5, "BenchmarkFullReload", 1,
				"a cold start from the snapshot store is at least 5x faster than the full reload it replaces"},
			{"BenchmarkSnapshotMmapColdStart", nsOp, 40, "BenchmarkFullReload", 1,
				"a mapped open is at least 40x faster than the full reload it replaces"},
			{"BenchmarkSnapshotMmapColdStart", allocsOp, 2000, "BenchmarkFullReload", 1,
				"a mapped open allocates at least 2000x less than the full reload it replaces"},
		},
	},
	{
		file: "BENCH_serve.json",
		// The per-address bench runs nanoseconds per op: 2M iterations
		// keep its window clear of timer noise. The batch bench is three
		// orders of magnitude heavier.
		runs: []run{
			{"./internal/serve", []string{"BenchmarkLookupAddr"}, "2000000x", 5},
			{"./internal/serve", []string{"BenchmarkLookupBatch"}, "5000x", 5},
			{"./internal/serve", []string{"BenchmarkHandlerLookup", "BenchmarkHandlerLookupBatch"}, "1s", 5},
		},
		gates: []gate{
			{"BenchmarkLookupAddr", allocsOp, 1, "", 0,
				"the single-address lookup, the daemon's hottest path, allocates nothing"},
			{"BenchmarkHandlerLookup", allocsOp, 1, "", 8,
				"the /lookup handler allocates only its deadline context, request copy and response gate"},
		},
	},
	{
		file: "BENCH_fleet.json",
		runs: []run{
			{"./cmd/leasestorm", []string{"BenchmarkFleetLookup", "BenchmarkFleetTable1"}, "1s", 3},
		},
	},
	{
		file: "BENCH_telemetry.json",
		runs: []run{
			{"./internal/telemetry", []string{"BenchmarkCounterInc", "BenchmarkHistogramObserve", "BenchmarkCounterVecWith", "BenchmarkWritePrometheus", "BenchmarkTraceDecisionUnsampled"}, "1s", 1},
		},
		gates: []gate{
			{"BenchmarkCounterInc", nsOp, 1, "", 50,
				"Counter.Inc, on every request and parsed record, costs at most 50ns: far above its cost, so only a lock or the like trips it"},
			{"BenchmarkTraceDecisionUnsampled", nsOp, 1, "", 100,
				"the unsampled trace decision, on every request, costs at most 100ns"},
			{"BenchmarkTraceDecisionUnsampled", allocsOp, 1, "", 0,
				"the unsampled trace decision allocates nothing"},
		},
	},
}

func main() {
	results := map[string]result{}
	var verdicts []verdict
	for _, s := range suites {
		for _, r := range s.runs {
			out, err := goTest(r)
			if err != nil {
				verdicts = append(verdicts, verdict{false, fmt.Sprintf("go test %s: %v", r.pkg, err)})
			}
			parse(out, results)
		}
	}
	verdicts = append(verdicts, check(".", results)...)
	failed := report(os.Stdout, verdicts)
	if failed == 0 {
		if err := seed(".", results); err != nil {
			fmt.Println("FAIL:", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d of %d verdicts failed\n", failed, len(verdicts))
		os.Exit(1)
	}
	fmt.Printf("benchgate: all %d verdicts passed\n", len(verdicts))
}

// pattern is the go test -bench regex selecting exactly r's benchmarks.
func (r run) pattern() string { return "^(" + strings.Join(r.benches, "|") + ")$" }

// goTest runs r, echoing its output, and returns that output.
func goTest(r run) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", r.pattern(), "-benchmem",
		"-benchtime", r.benchtime, "-count", strconv.Itoa(r.count), r.pkg}
	fmt.Println("== go", strings.Join(args, " "))
	var out bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	return out.String(), err
}

// A result is one benchmark line's values keyed by unit token ("ns/op",
// "B/op", "allocs/op", "MB/s", ...), raw as go test printed them, with
// the iteration count under "".
type result map[string]string

// num returns r's value in unit, and false when r has none.
func (r result) num(unit string) (float64, bool) {
	v, err := strconv.ParseFloat(r[unit], 64)
	return v, err == nil
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse adds go test -bench output to results, keyed by benchmark name
// without its -GOMAXPROCS suffix, keeping per name the repetition with
// the lowest ns/op: transient load only ever slows a run down, so the
// minimum is the best estimate of the code's cost. Values are read by
// their unit token, never by column, so a column one benchmark adds
// (SetBytes' MB/s) shifts nothing.
func parse(out string, results map[string]result) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		r := result{"": f[1]}
		for i := 3; i < len(f); i += 2 {
			r[f[i]] = f[i-1]
		}
		ns, ok := r.num(nsOp)
		if !ok {
			continue
		}
		name := procSuffix.ReplaceAllString(f[0], "")
		if best, seen := results[name]; seen {
			if bestNs, _ := best.num(nsOp); ns >= bestNs {
				continue
			}
		}
		results[name] = r
	}
}

// fmtNum prints v in plain decimal, never in exponent form.
func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

type verdict struct {
	ok  bool
	msg string
}

// baselineRow is the part of a BENCH_*.json row the drift gate reads.
type baselineRow struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// readBaseline reads one baseline file, returning its rows and its
// bytes; a missing file has neither.
func readBaseline(path string) (map[string]baselineRow, []byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var rows map[string]baselineRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, data, nil
}

// check returns the drift verdict of every benchmark in the table,
// against the baseline files in dir, then the verdict of every
// absolute gate.
func check(dir string, results map[string]result) []verdict {
	var vs []verdict
	for _, s := range suites {
		base, _, err := readBaseline(filepath.Join(dir, s.file))
		if err != nil {
			vs = append(vs, verdict{false, err.Error()})
			continue
		}
		for _, r := range s.runs {
			for _, name := range r.benches {
				vs = append(vs, drift(s.file, name, results[name], base))
			}
		}
	}
	for _, s := range suites {
		for _, g := range s.gates {
			vs = append(vs, g.check(results))
		}
	}
	return vs
}

func drift(file, name string, r result, base map[string]baselineRow) verdict {
	ns, okNs := r.num(nsOp)
	allocs, okAllocs := r.num(allocsOp)
	if !okNs || !okAllocs {
		return verdict{false, fmt.Sprintf("drift %s: missing from fresh bench output", name)}
	}
	b, ok := base[name]
	if !ok {
		return verdict{true, fmt.Sprintf("drift %s: no baseline in %s; seeding it", name, file)}
	}
	msg := fmt.Sprintf("drift %s: %s ns/op (baseline %s), %s allocs/op (baseline %s)",
		name, r[nsOp], fmtNum(b.NsPerOp), r[allocsOp], fmtNum(b.AllocsPerOp))
	switch {
	case ns > b.NsPerOp*1.25:
		return verdict{false, msg + ": ns/op regressed >25%"}
	case allocs > b.AllocsPerOp*1.25+0.5:
		return verdict{false, msg + ": allocs/op regressed >25%"}
	}
	return verdict{true, msg}
}

func (g gate) check(results map[string]result) verdict {
	head := fmt.Sprintf("gate %s %s: ", g.bench, g.unit)
	v, ok := results[g.bench].num(g.unit)
	if !ok {
		return verdict{false, head + "missing from fresh bench output"}
	}
	bound, of := g.limit, fmtNum(g.limit)
	if g.ref != "" {
		r, ok := results[g.ref].num(g.unit)
		if !ok {
			return verdict{false, head + g.ref + " missing from fresh bench output"}
		}
		bound, of = r*g.limit, fmt.Sprintf("%s %s %s ×%s", g.ref, fmtNum(r), g.unit, fmtNum(g.limit))
	}
	msg := fmt.Sprintf("%s%s ×%s <= %s (%s)", head, fmtNum(v), fmtNum(g.times), of, g.why)
	return verdict{v*g.times <= bound, msg}
}

// report prints every verdict and returns how many failed.
func report(w io.Writer, vs []verdict) int {
	failed := 0
	for _, v := range vs {
		tag := "ok:  "
		if !v.ok {
			tag = "FAIL:"
			failed++
		}
		fmt.Fprintln(w, tag, v.msg)
	}
	return failed
}

// seed appends to each baseline file in dir the rows it lacks, inserted
// before the object's closing brace so every existing byte stays in
// place; a missing file is created.
func seed(dir string, results map[string]result) error {
	for _, s := range suites {
		path := filepath.Join(dir, s.file)
		base, data, err := readBaseline(path)
		if err != nil {
			return err
		}
		var rows []string
		for _, r := range s.runs {
			for _, name := range r.benches {
				if _, ok := base[name]; !ok {
					rows = append(rows, renderRow(name, results[name]))
				}
			}
		}
		if len(rows) == 0 {
			continue
		}
		head := "{"
		if data != nil {
			end := bytes.LastIndexByte(data, '}')
			if end < 0 {
				return fmt.Errorf("%s: not a JSON object", path)
			}
			head = strings.TrimRight(string(data[:end]), " \t\n")
			if !strings.HasSuffix(head, "{") {
				head += ","
			}
		}
		if err := os.WriteFile(path, []byte(head+"\n"+strings.Join(rows, ",\n")+"\n}\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// renderRow renders one baseline row in the files' one-row-per-line
// layout, with the numbers exactly as go test printed them.
func renderRow(name string, r result) string {
	return fmt.Sprintf(`  %q: {"iterations": %s, "ns_per_op": %s, "bytes_per_op": %s, "allocs_per_op": %s}`,
		name, r[""], r[nsOp], r[bytesOp], r[allocsOp])
}
