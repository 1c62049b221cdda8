package diag

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLoadErrorRendering(t *testing.T) {
	base := errors.New("bad range")
	le := &LoadError{Source: "whois/RIPE", File: "ripe.db", Record: 12, Offset: -1, Err: base}
	got := le.Error()
	for _, want := range []string{"whois/RIPE", "ripe.db", "record 12", "bad range"} {
		if !strings.Contains(got, want) {
			t.Errorf("Error() = %q, missing %q", got, want)
		}
	}
	if strings.Contains(got, "offset") {
		t.Errorf("Error() = %q renders unknown offset", got)
	}
	if !errors.Is(le, base) {
		t.Error("Unwrap chain broken")
	}

	withOff := &LoadError{Source: "bgp", Offset: 4096, Err: base}
	if !strings.Contains(withOff.Error(), "offset 4096") {
		t.Errorf("Error() = %q, missing offset", withOff.Error())
	}
}

func TestNilCollectorIsStrict(t *testing.T) {
	var c *Collector
	if !c.Strict() {
		t.Error("nil collector must be strict")
	}
	sentinel := errors.New("boom")
	if err := c.Skip(1, -1, sentinel); err != sentinel {
		t.Errorf("nil Skip = %v, want passthrough", err)
	}
	if err := c.Truncate(0, sentinel); err != sentinel {
		t.Errorf("nil Truncate = %v, want passthrough", err)
	}
	// Accounting on nil is a no-op, not a panic.
	c.Parsed()
	c.AddParsed(3)
	c.SetFile("x")
	c.MarkMissing()
	if c.Report() != nil {
		t.Error("nil Report must be nil")
	}
}

func TestStrictCollectorPassesThrough(t *testing.T) {
	c := NewCollector("asrel", Strict())
	sentinel := errors.New("boom")
	if err := c.Skip(1, -1, sentinel); err != sentinel {
		t.Errorf("strict Skip = %v, want passthrough", err)
	}
	if c.Report().Skipped != 0 {
		t.Error("strict mode must not account skips")
	}
}

func TestLenientSkipAccounting(t *testing.T) {
	var seen []*LoadError
	opts := Lenient()
	opts.OnError = func(le *LoadError) { seen = append(seen, le) }
	c := NewCollector("rpki", opts)
	c.SetFile("vrps-1.csv")
	for i := 0; i < 3; i++ {
		if err := c.Skip(i+1, -1, fmt.Errorf("bad line %d", i)); err != nil {
			t.Fatalf("lenient Skip = %v", err)
		}
	}
	c.AddParsed(97)
	rep := c.Report()
	if rep.Parsed != 97 || rep.Skipped != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.ErrorSamples) != 3 || rep.ErrorSamples[0].File != "vrps-1.csv" {
		t.Fatalf("samples = %+v", rep.ErrorSamples)
	}
	if len(seen) != 3 {
		t.Fatalf("OnError saw %d", len(seen))
	}
	if rate := rep.ErrorRate(); rate < 0.029 || rate > 0.031 {
		t.Errorf("ErrorRate = %v", rate)
	}
	if rep.Clean() {
		t.Error("report with skips must not be Clean")
	}
}

func TestSampleCap(t *testing.T) {
	opts := Lenient()
	opts.MaxErrorRate = -1 // disable breaker
	opts.MaxErrorSamples = 2
	c := NewCollector("geo", opts)
	for i := 0; i < 10; i++ {
		if err := c.Skip(i+1, -1, errors.New("x")); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.Report()
	if rep.Skipped != 10 || len(rep.ErrorSamples) != 2 {
		t.Fatalf("skipped=%d samples=%d", rep.Skipped, len(rep.ErrorSamples))
	}
}

func TestCircuitBreaker(t *testing.T) {
	c := NewCollector("whois/ARIN", Lenient())
	// Below the arming threshold nothing trips even at 100% errors.
	for i := 0; i < breakerMinRecords-1; i++ {
		if err := c.Skip(i+1, -1, errors.New("junk")); err != nil {
			t.Fatalf("breaker tripped before arming: %v", err)
		}
	}
	// One more all-garbage record arms and trips it.
	err := c.Skip(breakerMinRecords, -1, errors.New("junk"))
	if !errors.Is(err, ErrErrorRate) {
		t.Fatalf("breaker error = %v", err)
	}
}

func TestCircuitBreakerRespectsParsed(t *testing.T) {
	c := NewCollector("whois/ARIN", Lenient())
	c.AddParsed(1000)
	for i := 0; i < 400; i++ { // 400/1400 < 0.5: stays under the default rate
		if err := c.Skip(i+1, -1, errors.New("junk")); err != nil {
			t.Fatalf("breaker tripped at low rate: %v", err)
		}
	}
}

func TestTruncateLenient(t *testing.T) {
	c := NewCollector("bgp/rib.routeviews.mrt", Lenient())
	c.AddParsed(42)
	if err := c.Truncate(8192, errors.New("mrt: truncated record")); err != nil {
		t.Fatalf("lenient Truncate = %v", err)
	}
	rep := c.Report()
	if !rep.Truncated || rep.Parsed != 42 || len(rep.ErrorSamples) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ErrorSamples[0].Offset != 8192 {
		t.Errorf("sample offset = %d", rep.ErrorSamples[0].Offset)
	}
}

func TestReportString(t *testing.T) {
	r := &LoadReport{Source: "geo", Parsed: 10, Skipped: 2}
	if s := r.String(); !strings.Contains(s, "10 parsed") || !strings.Contains(s, "2 skipped") {
		t.Errorf("String = %q", s)
	}
	if s := (&LoadReport{Source: "rpki", Missing: true}).String(); !strings.Contains(s, "missing") {
		t.Errorf("String = %q", s)
	}
	if s := (&LoadReport{Source: "bgp", Parsed: 5, Truncated: true}).String(); !strings.Contains(s, "truncated") {
		t.Errorf("String = %q", s)
	}
}

// TestCollectorConcurrent hammers one collector from many goroutines —
// the serving daemon's reload path parses sources in parallel while
// status endpoints read reports — and checks that the accounting is
// exact and that mid-flight Report copies are internally consistent.
// Run under -race (scripts/check.sh gates on it).
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector("concurrent", LoadOptions{MaxErrorRate: -1})
	const (
		workers   = 8
		perWorker = 500
	)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	// Reader goroutine: snapshots must never observe more samples than
	// skips, nor counts smaller than an earlier snapshot's, regardless of
	// interleaving.
	reader.Add(1)
	go func() {
		defer reader.Done()
		lastParsed, lastSkipped := 0, 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := c.Report()
			if len(rep.ErrorSamples) > rep.Skipped {
				t.Errorf("inconsistent snapshot: %d samples > %d skips",
					len(rep.ErrorSamples), rep.Skipped)
				return
			}
			if rep.Parsed < lastParsed || rep.Skipped < lastSkipped {
				t.Errorf("counts went backwards: %d/%d after %d/%d",
					rep.Parsed, rep.Skipped, lastParsed, lastSkipped)
				return
			}
			lastParsed, lastSkipped = rep.Parsed, rep.Skipped
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c.SetFile("shard")
			for i := 0; i < perWorker; i++ {
				c.Parsed()
				if i%10 == 0 {
					if err := c.Skip(i, -1, errors.New("bad record")); err != nil {
						t.Errorf("Skip = %v", err)
						return
					}
				}
			}
			c.AddParsed(perWorker)
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	rep := c.Report()
	if want := workers * perWorker * 2; rep.Parsed != want {
		t.Errorf("Parsed = %d, want %d", rep.Parsed, want)
	}
	if want := workers * perWorker / 10; rep.Skipped != want {
		t.Errorf("Skipped = %d, want %d", rep.Skipped, want)
	}
	if len(rep.ErrorSamples) != DefaultMaxErrorSamples {
		t.Errorf("samples = %d, want cap %d", len(rep.ErrorSamples), DefaultMaxErrorSamples)
	}
}

// TestBreakerTripsOnRecordWithParsed pins the record the error-rate
// breaker trips on when parsed and malformed records interleave: ten
// good records, then garbage. The breaker reads the running parsed
// count, so a count that lagged behind Parsed calls would move the trip.
func TestBreakerTripsOnRecordWithParsed(t *testing.T) {
	c := NewCollector("whois/RIPE", Lenient())
	for r := 1; r <= 10; r++ {
		c.Parsed()
	}
	for r := 11; r < 21; r++ {
		if err := c.Skip(r, -1, errors.New("junk")); err != nil {
			t.Fatalf("breaker tripped at record %d, want 21: %v", r, err)
		}
	}
	// 11 skips of 21 records is the first rate above one half.
	if err := c.Skip(21, -1, errors.New("junk")); !errors.Is(err, ErrErrorRate) {
		t.Fatalf("record 21: breaker error = %v, want a trip", err)
	}
}
