package serve

// Reload-semantics kill test: under concurrent query load, a reload
// pointed at a faultgen-corrupted dataset must never drop or corrupt a
// response. The old snapshot serves byte-identically until a good reload
// lands, /readyz degrades in the meantime, and the reload breaker opens
// after the configured number of consecutive failures. Run under -race
// (scripts/check.sh gates on it): the query goroutines hammer the
// atomic snapshot pointer while reload cycles build and swap.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ipleasing"
	"ipleasing/internal/faultgen"
)

// strictBuilder loads dir under the strict policy and indexes it: any
// faultgen corruption makes the build fail, which is exactly the rotten
// monthly refresh the daemon must survive.
func strictBuilder(dir string) func(context.Context) (*Snapshot, error) {
	return func(context.Context) (*Snapshot, error) {
		_, sum, res, err := ipleasing.LoadAndInfer(dir, ipleasing.StrictLoad(), ipleasing.Options{})
		if err != nil {
			return nil, err
		}
		snap := NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
		snap.Dir = dir
		snap.Strict = true
		return snap, nil
	}
}

func TestReloadUnderCorruptionServesOldSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset reload cycle")
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ipleasing.Generate(ipleasing.Config{Seed: 42, Scale: 0.005}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	s := New(Config{
		Build:          strictBuilder(dir),
		ReloadAttempts: 2,
		ReloadBackoff:  time.Millisecond,
		BreakerAfter:   2,
	})
	ctx := context.Background()
	if err := s.Reload(ctx, true); err != nil {
		t.Fatalf("initial reload: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Baseline: every query URL the load goroutines will replay, with
	// the byte-exact response each must keep producing while the old
	// snapshot serves. Sampled across leased and non-leased leaves.
	snap := s.Snapshot()
	var urls []string
	for i := 0; i < snap.NumInferences(); i++ {
		if len(urls) >= 24 {
			break
		}
		if i%3 == 0 {
			inf := snap.Inference(i)
			urls = append(urls, "/lookup?prefix="+inf.Prefix.String())
			if o := inf.Originator(); o != 0 {
				urls = append(urls, fmt.Sprintf("/lookup?asn=%d", o))
			}
		}
	}
	urls = append(urls, "/table1", "/loadreport")
	if len(urls) < 10 {
		t.Fatalf("only %d query URLs sampled; dataset too small", len(urls))
	}
	// normalize strips the snapshot timestamp: a successful reload of
	// identical bytes swaps in a snapshot whose data must match the
	// baseline exactly, but whose built_at legitimately differs.
	normalize := func(body string) string {
		lines := strings.Split(body, "\n")
		out := lines[:0]
		for _, l := range lines {
			if !strings.Contains(l, `"snapshot_built_at"`) && !strings.Contains(l, `"built_at"`) {
				out = append(out, l)
			}
		}
		return strings.Join(out, "\n")
	}
	baseline := make(map[string]string, len(urls))
	for _, u := range urls {
		code, body, _ := get(t, ts, u)
		if code != 200 {
			t.Fatalf("baseline %s: code %d", u, code)
		}
		baseline[u] = normalize(body)
	}

	// Concurrent query load for the whole corrupt-reload-recover cycle.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mismatch sync.Once
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[(i+w)%len(urls)]
				code, body, _ := get(t, ts, u)
				if code != 200 {
					mismatch.Do(func() { t.Errorf("under load %s: code %d", u, code) })
					return
				}
				if got := normalize(body); got != baseline[u] {
					mismatch.Do(func() {
						t.Errorf("response drifted during reload churn: %s\n got: %s\nwant: %s", u, got, baseline[u])
					})
					return
				}
			}
		}(w)
	}

	// Corrupt the dataset: every strict reload now fails.
	fr, err := faultgen.Corrupt(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(ctx, false); err == nil {
		t.Fatal("reload of corrupted dataset succeeded")
	}

	// Degraded but serving: /readyz 503, queries still byte-identical.
	code, body, _ := get(t, ts, "/readyz")
	if code != 503 || !strings.Contains(body, "degraded") {
		t.Errorf("/readyz after failed reload: code %d body %s", code, body)
	}

	// Second failed cycle opens the breaker; unforced reloads are then
	// refused outright.
	if err := s.Reload(ctx, false); err == nil {
		t.Fatal("second reload of corrupted dataset succeeded")
	}
	if err := s.Reload(ctx, false); err != ErrBreakerOpen {
		t.Fatalf("reload with open breaker = %v, want ErrBreakerOpen", err)
	}
	code, body, _ = get(t, ts, "/readyz")
	if code != 503 || !strings.Contains(body, "breaker") && !strings.Contains(body, "degraded") {
		t.Errorf("/readyz with open breaker: code %d body %s", code, body)
	}

	// Repair the dataset. The breaker still blocks unforced reloads —
	// recovery is an operator decision (SIGHUP) — and a forced reload
	// lands the good snapshot and closes the breaker.
	if err := fr.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(ctx, false); err != ErrBreakerOpen {
		t.Fatalf("unforced reload after repair = %v, want ErrBreakerOpen", err)
	}
	if err := s.Reload(ctx, true); err != nil {
		t.Fatalf("forced reload after repair: %v", err)
	}
	if code, body, _ := get(t, ts, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz after recovery: code %d body %s", code, body)
	}

	close(stop)
	wg.Wait()

	// The recovered snapshot is rebuilt from identical bytes, so the
	// timestamp-free endpoints must still match the baseline exactly.
	for _, u := range urls {
		if _, body, _ := get(t, ts, u); normalize(body) != baseline[u] {
			t.Errorf("%s drifted across recovery:\n got: %s\nwant: %s", u, normalize(body), baseline[u])
		}
	}
	// Reload history accounts every cycle: initial ok, two failures,
	// final forced ok. The breaker-refused attempts never ran a cycle.
	s.mu.Lock()
	cycles, fails, open := s.reloads, s.consecFails, s.breakerOpen
	s.mu.Unlock()
	if cycles != 4 || fails != 0 || open {
		t.Errorf("reload bookkeeping: cycles=%d consecFails=%d open=%v, want 4/0/false", cycles, fails, open)
	}
}

// TestReloadLoopTimer drives the timer path: cycles happen without
// explicit Reload calls and stop with the context.
func TestReloadLoopTimer(t *testing.T) {
	s := New(Config{
		Build:       func(context.Context) (*Snapshot, error) { return testSnapshot(), nil },
		ReloadEvery: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.ReloadLoop(ctx); close(done) }()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		n := s.reloads
		s.mu.Unlock()
		if n >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("timer reloads never happened")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ReloadLoop did not stop on context cancel")
	}
	if s.Snapshot() == nil {
		t.Error("no snapshot after timer reloads")
	}
}
