package telemetry

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	// Idempotent registration returns the same instrument.
	if again := r.Counter("requests_total", "Total requests."); again != c {
		t.Error("re-registration returned a different counter")
	}
	out := expose(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.\n",
		"# TYPE requests_total counter\n",
		"requests_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeSetAddAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "Items queued.")
	g.Set(10)
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("Value = %v, want 6.5", got)
	}
	r.GaugeFunc("answer", "Scrape-time callback.", func() float64 { return 42 })
	out := expose(t, r)
	if !strings.Contains(out, "queue_depth 6.5\n") {
		t.Errorf("gauge sample missing:\n%s", out)
	}
	if !strings.Contains(out, "answer 42\n") {
		t.Errorf("gauge-func sample missing:\n%s", out)
	}
}

func TestSetGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.SetGaugeFunc("age", "", func() float64 { return 1 })
	r.SetGaugeFunc("age", "", func() float64 { return 2 })
	if out := expose(t, r); !strings.Contains(out, "age 2\n") {
		t.Errorf("SetGaugeFunc did not replace callback:\n%s", out)
	}
	// GaugeFunc keeps the existing callback.
	r.GaugeFunc("age", "", func() float64 { return 3 })
	if out := expose(t, r); !strings.Contains(out, "age 2\n") {
		t.Errorf("GaugeFunc overwrote existing callback:\n%s", out)
	}
}

func TestVecChildrenAndOrdering(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ingest_skipped_records_total", "Skips.", "source")
	v.With("whois/RIPE").Add(3)
	v.With("rpki").Add(1)
	v.With("bgp/rib.mrt").Add(2)
	out := expose(t, r)
	// Children sorted by label value regardless of creation order.
	iRipe := strings.Index(out, `source="whois/RIPE"`)
	iRpki := strings.Index(out, `source="rpki"`)
	iBgp := strings.Index(out, `source="bgp/rib.mrt"`)
	if iBgp == -1 || iRpki == -1 || iRipe == -1 || !(iBgp < iRpki && iRpki < iRipe) {
		t.Errorf("children out of order (bgp=%d rpki=%d ripe=%d):\n%s", iBgp, iRpki, iRipe, out)
	}
	if v.With("rpki") != v.With("rpki") {
		t.Error("With not stable for equal label values")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("weird", "", "path")
	v.With("a\\b\"c\nd").Set(1)
	out := expose(t, r)
	want := `weird{path="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped sample %q missing:\n%s", want, out)
	}
	if err := LintExposition([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("Sum = %v, want 55.65", h.Sum())
	}
	out := expose(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1 (le semantics)
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogramVecSharedBuckets(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("req_seconds", "", nil, "endpoint")
	v.With("lookup").Observe(0.001)
	v.With("table1").Observe(2)
	out := expose(t, r)
	if !strings.Contains(out, `req_seconds_count{endpoint="lookup"} 1`) ||
		!strings.Contains(out, `req_seconds_count{endpoint="table1"} 1`) {
		t.Errorf("per-child counts missing:\n%s", out)
	}
	if err := LintExposition([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "")
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"kind conflict", func() { r.Gauge("thing", "") }},
		{"label conflict", func() { r.CounterVec("thing", "", "x") }},
		{"bad name", func() { r.Counter("bad-name", "") }},
		{"bad label", func() { r.CounterVec("ok_name", "", "bad-label") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestWithWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("labeled", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// TestConcurrentInstruments hammers one counter, one gauge, and one
// histogram child from many goroutines while a scraper renders the
// registry — the -race gate for the serving daemon's hot path.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	hv := r.HistogramVec("h_seconds", "", []float64{0.5, 1, 2}, "ep")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := hv.With("ep")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%3) * 0.75)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("scrape during load: %v", err)
				return
			}
			if err := LintExposition(b.Bytes()); err != nil {
				t.Errorf("lint during load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := hv.With("ep").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// A final quiescent scrape is fully consistent.
	out := expose(t, r)
	if err := LintExposition([]byte(out)); err != nil {
		t.Errorf("final lint: %v", err)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntimeMetrics()
	r.RegisterRuntimeMetrics() // idempotent: one family and one sample set each
	// A forced GC that returns memory guarantees a completed cycle and
	// released heap for the gauges below.
	debug.FreeOSMemory()
	out := expose(t, r)
	for _, fam := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_heap_released_bytes",
		"go_gc_cycles_total", "process_start_time_seconds"} {
		if v, ok := sampleValue(out, fam); !ok || v <= 0 {
			t.Errorf("runtime metric %s = %v (present %v), want > 0:\n%s", fam, v, ok, out)
		}
	}
	if strings.Count(out, "# TYPE go_heap_alloc_bytes ") != 1 {
		t.Errorf("go_heap_alloc_bytes registered more than once:\n%s", out)
	}
	// The gauges keep their runtime.MemStats meanings.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if v, _ := sampleValue(out, "go_gc_cycles_total"); v > float64(ms.NumGC) || v == 0 {
		t.Errorf("go_gc_cycles_total = %v, MemStats.NumGC = %d", v, ms.NumGC)
	}
	if _, ok := readResidentBytes(); ok {
		v, present := sampleValue(out, "process_resident_memory_bytes")
		if !present || v <= 0 {
			t.Errorf("process_resident_memory_bytes = %v (present %v), want > 0", v, present)
		}
		if heap, _ := sampleValue(out, "go_heap_alloc_bytes"); v < heap/2 {
			t.Errorf("resident set %v implausibly below live heap %v", v, heap)
		}
	}
	if err := LintExposition([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
	// Concurrent scrapes share the one sample set (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b bytes.Buffer
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if v, _ := sampleValue(b.String(), "go_heap_alloc_bytes"); v <= 0 {
					t.Errorf("concurrent scrape: go_heap_alloc_bytes = %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sampleValue returns the value of the unlabeled sample name in an
// exposition document.
func sampleValue(doc, name string) (float64, bool) {
	for _, line := range strings.Split(doc, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

func TestLintCatchesViolations(t *testing.T) {
	for name, doc := range map[string]string{
		"sample before type": "foo 1\n# TYPE foo counter\n",
		"bad name":           "# TYPE foo counter\n1foo 2\n",
		"bad value":          "# TYPE foo counter\nfoo banana\n",
		"bad escape":         "# TYPE foo counter\nfoo{a=\"\\q\"} 1\n",
		"noncumulative histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"inf/count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	} {
		if err := LintExposition([]byte(doc)); err == nil {
			t.Errorf("%s: lint accepted invalid document", name)
		}
	}
	if err := LintExposition([]byte("# TYPE ok gauge\nok 1\n")); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}
