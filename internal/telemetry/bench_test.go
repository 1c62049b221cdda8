package telemetry

import (
	"io"
	"net/http"
	"testing"
)

// The registry hot path is the instrumentation budget for every
// per-record parse loop and every served request: cmd/benchgate runs
// these against BENCH_telemetry.json so a creep in instrumentation cost
// fails the gate. The acceptance bar is <= 50 ns/op for a counter
// increment.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	// The un-hoisted path: label lookup plus increment per event.
	r := NewRegistry()
	v := r.CounterVec("bench_labeled_total", "", "source")
	v.With("whois/RIPE")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("whois/RIPE").Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkTraceDecisionUnsampled(b *testing.B) {
	// The full per-request cost an UNSAMPLED request pays for the trace
	// plane: a header lookup (absent), the traceparent parse fast path,
	// and one head-sampler draw at a rate that keeps ~nothing. This is
	// the overhead budget gated by cmd/benchgate — the nil-span
	// no-op convention means everything past this point is free.
	hdr := make(http.Header)
	hdr.Set("User-Agent", "bench")
	s := NewSampler(1e-9, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseTraceparent(hdr.Get(TraceparentHeader)); ok || s.Sample() {
			b.Fatal("unsampled bench sampled a request")
		}
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_scrape_total", "", "source")
	hv := r.HistogramVec("bench_scrape_seconds", "", nil, "endpoint")
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		v.With(s).Add(100)
		hv.With(s).Observe(0.1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
