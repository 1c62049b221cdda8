// Package telemetry is the dependency-free instrumentation substrate
// shared by the whole pipeline: a concurrent metrics registry exposed in
// Prometheus text exposition format, lightweight stage tracing with
// JSON-dumpable span trees, and a leveled structured logger.
//
// The package deliberately has no dependencies beyond the standard
// library so any layer — parsers, loaders, the inference core, the
// serving daemon — can import it without cycles or vendoring. Hot-path
// instruments are lock-free: a Counter increment is a single atomic add,
// and a Histogram observation is a binary search plus two atomic adds,
// so instrumenting the paper's per-record parse loops costs nanoseconds,
// not milliseconds (cmd/benchgate's BENCH_telemetry.json gate keeps it
// that way).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind is a metric family's type in the exposition output.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a concurrent collection of metric families. The zero value
// is not usable; create one with NewRegistry. Registration is idempotent:
// asking for an already-registered family with the same kind and label
// names returns the existing instruments, so independent layers can
// safely "register" the same metric (a reloading daemon, repeated test
// servers). Asking with a conflicting kind or label set panics — that is
// a programming error, not an operational condition.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
	rt   *runtimeStats // set by RegisterRuntimeMetrics; refreshed per scrape
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with zero or more labeled children.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string // label names; nil for an unlabeled scalar
	bounds []float64

	mu       sync.RWMutex
	children map[string]any // labelKey -> *Counter | *Gauge | *Histogram
	order    []string       // insertion order of children keys
	fn       func() float64 // callback gauge; nil otherwise
}

// labelSep joins label values into a child key. 0xff cannot appear in
// valid UTF-8 label values' first byte position ambiguity-free enough for
// a process-local key; exposition output re-derives values from the key.
const labelSep = "\xff"

// validName reports whether s is a valid Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel reports whether s is a valid Prometheus label name.
func validLabel(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use and
// panicking on a kind or label-set conflict.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic("telemetry: invalid label name " + strconv.Quote(l) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s%v, was %s%v",
				name, k, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]any),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns the labeled child for key, creating it with mk on first
// use. The read path is a shared-lock map probe.
func (f *family) child(key string, mk func() any) any {
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

func (f *family) labelKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// Counter is a monotonically increasing event count. The zero value is
// ready to use standalone; registry-created counters are shared by name.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative semantics; callers pass counts).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative only
// at exposition time; observation is a binary search over the upper
// bounds plus two atomic adds, safe for concurrent use.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets is the default latency bucket layout, in seconds: microsecond
// lookups through multi-second dataset reloads.
var DefBuckets = []float64{
	0.000025, 0.0001, 0.00025, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter returns the unlabeled counter family name, registering it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.child("", func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the unlabeled gauge family name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.child("", func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a callback gauge evaluated at scrape time (e.g.
// snapshot age, goroutine count). The first registration's callback
// wins; later idempotent registrations keep it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	if f.fn == nil {
		f.fn = fn
	}
	f.mu.Unlock()
}

// SetGaugeFunc is GaugeFunc but always replaces the callback — for a
// value owned by a live object that may be rebuilt (a server's current
// snapshot).
func (r *Registry) SetGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram returns the unlabeled histogram family name. A nil buckets
// slice selects DefBuckets. Buckets must be sorted ascending and are
// fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, kindHistogram, nil, buckets)
	return f.child("", func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family with labeled children.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child for the given label values, creating it on
// first use. Hoist the child out of hot loops: the child's Inc is a bare
// atomic add, while With is a (shared-lock) map probe.
func (v *CounterVec) With(values ...string) *Counter {
	key := v.f.labelKey(values)
	return v.f.child(key, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with labeled children.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// With returns the child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := v.f.labelKey(values)
	return v.f.child(key, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with labeled children sharing one
// bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family. A nil buckets slice
// selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets)}
}

// With returns the child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := v.f.labelKey(values)
	return v.f.child(key, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// RegisterRuntimeMetrics adds the standard process self-observation
// gauges (goroutines, heap, GC cycles, resident memory, process start
// time) to the registry. The heap and GC gauges come from one
// runtime/metrics read per scrape, which, unlike runtime.ReadMemStats,
// does not stop the world.
func (r *Registry) RegisterRuntimeMetrics() {
	start := time.Now()
	r.GaugeFunc("process_start_time_seconds",
		"Unix time the process (registry) started.",
		func() float64 { return float64(start.UnixNano()) / 1e9 })
	r.GaugeFunc("go_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	rt := r.runtimeSamples()
	r.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return rt.value(sampleHeapObjects) })
	r.GaugeFunc("go_heap_released_bytes",
		"Bytes of heap memory returned to the OS and not reused since.",
		func() float64 { return rt.value(sampleHeapReleased) })
	r.GaugeFunc("go_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() float64 { return rt.value(sampleGCCycles) })
	// Page-fault counters and the resident set (Linux), read from
	// /proc/self at scrape time. With mmap-backed snapshot serving the
	// fault counters are the cost model: major faults measure what
	// actually hit disk. The resident set is what the process costs the
	// host: serving state, mapped pages, and any heap not yet returned.
	if _, _, ok := readPageFaults(); ok {
		r.GaugeFunc("process_minor_page_faults_total",
			"Cumulative minor page faults (page-cache hits) for the process.",
			func() float64 { mn, _, _ := readPageFaults(); return float64(mn) })
		r.GaugeFunc("process_major_page_faults_total",
			"Cumulative major page faults (disk reads) for the process.",
			func() float64 { _, mj, _ := readPageFaults(); return float64(mj) })
	}
	if _, ok := readResidentBytes(); ok {
		r.GaugeFunc("process_resident_memory_bytes",
			"Resident set size of the process in bytes.",
			func() float64 { n, _ := readResidentBytes(); return float64(n) })
	}
}

// Indexes into runtimeStats.samples.
const (
	sampleHeapObjects = iota
	sampleHeapReleased
	sampleGCCycles
	numRuntimeSamples
)

// runtimeStats holds the runtime/metrics samples behind the heap and GC
// gauges. WritePrometheus refreshes them with one metrics.Read per
// scrape, so the gauges of one scrape agree with each other.
type runtimeStats struct {
	mu      sync.Mutex
	samples [numRuntimeSamples]metrics.Sample
}

// runtimeSamples returns the registry's runtime samples, creating them on
// first use so repeated RegisterRuntimeMetrics calls share one set.
func (r *Registry) runtimeSamples() *runtimeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rt == nil {
		rt := &runtimeStats{}
		rt.samples[sampleHeapObjects].Name = "/memory/classes/heap/objects:bytes" // MemStats.HeapAlloc
		rt.samples[sampleHeapReleased].Name = "/memory/classes/heap/released:bytes"
		rt.samples[sampleGCCycles].Name = "/gc/cycles/total:gc-cycles" // MemStats.NumGC
		r.rt = rt
	}
	return r.rt
}

func (rt *runtimeStats) read() {
	rt.mu.Lock()
	metrics.Read(rt.samples[:])
	rt.mu.Unlock()
}

func (rt *runtimeStats) value(i int) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if v := rt.samples[i].Value; v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return 0
}

// escapeLabelValue escapes a label value per the text exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the text exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value. Integral values print without an
// exponent so counters read naturally.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {name="value",...} for a child key, with extra
// appended (the histogram le pair). Returns "" for no labels.
func (f *family) labelString(key string, extra ...string) string {
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, labelSep)
		for i, name := range f.labels {
			parts = append(parts, name+`="`+escapeLabelValue(values[i])+`"`)
		}
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, children sorted by label
// values, histograms with cumulative _bucket series plus _sum and
// _count. The output is deterministic for a quiescent registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	rt := r.rt
	r.mu.RUnlock()
	if rt != nil {
		rt.read()
	}

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		fn := f.fn
		f.mu.RUnlock()
		sort.Strings(keys)

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		if fn != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(fn()))
		}
		for _, key := range keys {
			f.mu.RLock()
			c := f.children[key]
			f.mu.RUnlock()
			switch m := c.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, f.labelString(key), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, f.labelString(key), formatFloat(m.Value()))
			case *Histogram:
				var cum uint64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					le := formatFloat(bound)
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, f.labelString(key, `le="`+le+`"`), cum)
				}
				// One consistent total for +Inf and _count: observations
				// racing the scrape bump buckets before the shared count,
				// so clamp up to the cumulative sum already rendered.
				cum += m.counts[len(m.bounds)].Load()
				n := m.Count()
				if n < cum {
					n = cum
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, f.labelString(key, `le="+Inf"`), n)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, f.labelString(key), formatFloat(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, f.labelString(key), n)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry in text
// exposition format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
	})
}
