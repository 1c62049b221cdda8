// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds cmd/leased and this program), generates
// seeded inputs, boots a real leased publisher and replica as child
// processes, drives one workload against them and prints one JSON
// result line. See README.md for the workloads, the metrics and how to
// read them.
//
//	perfbench -root <checkout> -leased <binary> --workload lookup-single \
//	          --seed 1 --seconds 10 --trace 0
//
// With -trace 0 it prints the end-to-end metrics of a timed phase run
// with the daemons' request tracing off; with -trace 1 it prints the
// per-layer metrics of a separate traced run on the same inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run prints, on every workload.
// "op" is each workload's unit of work: one closed-loop GET /lookup
// (lookup-single), one epoch flip until the replica serves it
// (reload-churn). "read" is a GET /lookup from the paced reader: alone
// on lookup-single, beside the flips on reload-churn. "request" is any
// request the replica answered: op loop, reader and, on reload-churn,
// /table1 polls. Only medians are gated:
// the tails (tail.* in perLayer) move too much from run to run on a
// shared two-vCPU machine to hold a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"read_p50_us", "us"},
	{"cpu_us_per_request", "us"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics a -trace 1 run prints, on every workload.
var perLayer = []metricDef{
	// Tails of the end-to-end latencies, from the traced run's untraced
	// phase (ops from both phases).
	{"tail.op_p80_ms", "ms"},
	{"tail.read_p99_us", "us"},
	// Lookup ladder: each rung adds one layer.
	{"netutil.lpm_lookup_ns", "ns"},
	{"serve.lookup_addr_ns", "ns"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.response_bytes", "bytes"},
	{"http.overhead_us", "us"},
	{"serve.span_decode_us", "us"},
	{"serve.span_lookup_us", "us"},
	{"serve.span_render_us", "us"},
	{"loadgen.cpu_us_per_request", "us"},
	{"snapstore.mapped_mb", "MiB"},
	{"bench.trace_overhead_pct", "%"},
	// Reload stage ledger over the churn chain.
	{"load.parse_ms", "ms"},
	{"load.alloc_mb", "MiB"},
	{"load.whois_ms", "ms"},
	{"load.bgp_ms", "ms"},
	{"load.rpki_ms", "ms"},
	{"load.merge_ms", "ms"},
	{"delta.diff_ms", "ms"},
	{"delta.infer_ms", "ms"},
	{"delta.dirty_ratio", "ratio"},
	{"delta.fallbacks", "count"},
	{"serve.patch_ms", "ms"},
	{"core.infer_ms", "ms"},
	{"serve.build_ms", "ms"},
	{"snapstore.encode_ms", "ms"},
	{"snapstore.publish_ms", "ms"},
	{"snapstore.snapshot_mb", "MiB"},
	{"snapstore.fetch_ms", "ms"},
	{"snapstore.open_ms", "ms"},
	{"daemon.reload_ms", "ms"},
	{"daemon.reloads_per_flip", "count"},
	{"daemon.wait_ms", "ms"},
	{"daemon.publisher_cpu_ms_per_reload", "ms"},
	{"daemon.publisher_rss_mb", "MiB"},
	{"daemon.replica_rss_mb", "MiB"},
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(*env) error{
	"lookup-single": runLookupSingle,
	"reload-churn":  runReloadChurn,
}

// env is one benchmark run's configuration and accumulating results.
type env struct {
	leased  string        // cmd/leased binary
	work    string        // this run's scratch directory
	in      *inputs       // the seed's inputs
	seconds time.Duration // timed-phase length
	trace   bool
	fleets  int // fleets booted so far, numbering their directories
	tally   tally

	mu      sync.Mutex
	metrics map[string]float64
}

func (e *env) set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics[name] = v
}

// tally counts attempted and failed operations. Every failure is a
// wrong or missing answer, so any failure makes the run incorrect.
type tally struct {
	attempted, failed atomic.Int64
	logged            atomic.Int64
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	if t.logged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult assembles the result line from the collected values,
// requiring exactly the metrics of defs.
func buildResult(defs []metricDef, values map[string]float64, attempted, failed int64) (*result, error) {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %s", strings.Join(extra, ", "))
	}
	if attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	return r, nil
}

func main() {
	debug.SetGCPercent(400)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root; all state goes under <root>/.bench_build")
	leased := fs.String("leased", "", "cmd/leased binary")
	workload := fs.String("workload", "", "lookup-single or reload-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "timed-phase length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if *leased == "" {
		return fmt.Errorf("-leased is required")
	}
	build := filepath.Join(*root, ".bench_build")
	in, err := loadInputs(filepath.Join(build, "inputs"), *seed)
	if err != nil {
		return err
	}
	// A new seed writes about 300 MB of inputs and evicts as much. Left
	// to background writeback, that I/O lands in the set-ups and the
	// timed phase, where every publish fsyncs a snapshot; flush it first.
	syscall.Sync()
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{leased: *leased, work: work, in: in, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, metrics: make(map[string]float64)}
	if err := runner(e); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	r, err := buildResult(defs, e.metrics, e.tally.attempted.Load(), e.tally.failed.Load())
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if !r.Correct {
		return fmt.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
	}
	return nil
}
