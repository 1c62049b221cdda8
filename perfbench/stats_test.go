package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{101, 50, 51},
		{100, 90, 90},
		{1000, 99, 990},
		{20, 50, 10},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestPercentileTailGuard(t *testing.T) {
	// p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9.
	if _, err := percentile(seq(100), 90); err != nil {
		t.Errorf("p90 of 100: %v", err)
	}
	if _, err := percentile(seq(99), 90); err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Errorf("p90 of 99 = %v, want the guard to refuse it", err)
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 passed the guard with 9 samples beyond")
	}
	if _, err := percentile(seq(20), 50); err != nil {
		t.Errorf("p50 of 20: %v", err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 passed the guard with 9 samples beyond")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples succeeded")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(100), p); err == nil {
			t.Errorf("p%g accepted", p)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestRemainder(t *testing.T) {
	// daemon.wait_ms: freshness minus the stage medians.
	if got := remainder(230, 64.4, 13.3, 2.2, 9.7, 3.2, 8.0, 5.2); math.Abs(got-124) > 1e-9 {
		t.Errorf("wait = %v, want 124", got)
	}
	// http.overhead_us: e2e p50 minus the handler.
	if got := remainder(130, 18.5); got != 111.5 {
		t.Errorf("overhead = %v", got)
	}
	// Parts timed on separate runs can exceed the whole: clamp.
	if got := remainder(10, 7, 5); got != 0 {
		t.Errorf("over-subtracted remainder = %v, want 0", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A comm with spaces and parentheses must not shift the fields.
	stat := "4242 (leased (x) y) S 1 4242 4242 0 -1 4194304 1200 0 3 0 " +
		"250 75 0 0 20 0 9 0 12345 700000000 20000 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v (utime 250 + stime 75 ticks)", got, want)
	}
	for _, bad := range []string{"4242 leased S 1", "4242 (leased) S 1 2 3", "4242 (l) S 1 1 1 0 -1 0 0 0 0 0 x 75 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parsed malformed stat %q", bad)
		}
	}
}

func TestParseStatusRSS(t *testing.T) {
	status := "Name:\tleased\nVmPeak:\t  900000 kB\nVmRSS:\t   268616 kB\nThreads:\t9\n"
	got, err := parseStatusRSS(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 268616<<10 {
		t.Errorf("rss = %d", got)
	}
	if mib(got) != 268616.0/1024 {
		t.Errorf("mib = %v", mib(got))
	}
	for _, bad := range []string{"Name:\tx\n", "VmRSS:\t12 MB\n", "VmRSS:\tlots kB\n"} {
		if _, err := parseStatusRSS(bad); err == nil {
			t.Errorf("parsed malformed status %q", bad)
		}
	}
}

func TestProcOfSelf(t *testing.T) {
	// The live /proc files parse; a busy loop shows up as CPU.
	c0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
	}
	c1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c0 {
		t.Errorf("cpu did not advance: %v -> %v", c0, c1)
	}
	if rss, err := procRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("rss = %d, %v", rss, err)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Five windows of 100: the median of the windows' p50s, so one
	// stalled window does not move the figure.
	var ws [][]float64
	for i := 0; i < 5; i++ {
		w := seq(100)
		if i == 2 {
			for j := range w {
				w[j] *= 10
			}
		}
		ws = append(ws, w)
	}
	if got, err := windowedPercentile(ws, 50); err != nil || got != 50 {
		t.Errorf("windowed p50 = %v, %v; want 50", got, err)
	}
	// Windows too small for the p95 guard: pooled instead. Rank 475 of
	// 500 is the 26th largest sample, in the stalled window.
	got, err := windowedPercentile(ws, 95)
	if err != nil {
		t.Fatal(err)
	}
	if want := 750.0; got != want {
		t.Errorf("pooled p95 = %v, want %v", got, want)
	}
	if _, err := windowedPercentile([][]float64{seq(5), seq(4)}, 90); err == nil {
		t.Error("pooled p90 of 9 samples passed the guard")
	}
}
