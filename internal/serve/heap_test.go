package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// heapHook counts heap returns through Config.freeOSMemory. A blocking
// hook holds every call until release is closed, so a test can keep one
// run in flight while more reloads request returns.
type heapHook struct {
	calls   atomic.Int32
	entered chan struct{} // receives once per call
	release chan struct{} // closed to let blocked calls finish
}

func newHeapHook(block bool) *heapHook {
	// entered holds more sends than any test makes calls, so the hook
	// never blocks on it.
	h := &heapHook{entered: make(chan struct{}, 16), release: make(chan struct{})}
	if !block {
		close(h.release)
	}
	return h
}

func (h *heapHook) free() {
	h.calls.Add(1)
	h.entered <- struct{}{}
	<-h.release
}

// awaitIdle waits until s has no heap return running or pending.
func awaitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.heapReturn.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("heap return never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotMode builds a snapshot labelled as restored from snapshot
// bytes, the way snapstore.Decode's are.
func snapshotMode(context.Context) (*Snapshot, error) {
	snap := testSnapshot()
	snap.loadMode = LoadModeHeap
	snap.Inferred = false
	return snap, nil
}

// TestForcedFullReloadReturnsHeapOnce: the boot load and SIGHUP — forced
// full rebuilds — return the build's heap exactly once, after the swap.
func TestForcedFullReloadReturnsHeapOnce(t *testing.T) {
	h := newHeapHook(false)
	s := New(Config{
		Build:        func(context.Context) (*Snapshot, error) { return testSnapshot(), nil },
		freeOSMemory: h.free,
	})
	if err := s.Reload(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot() == nil {
		t.Fatal("no snapshot after forced reload")
	}
	select {
	case <-h.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("forced full reload never returned heap")
	}
	awaitIdle(t, s)
	if got := h.calls.Load(); got != 1 {
		t.Errorf("heap returns = %d, want 1", got)
	}
}

// TestOtherReloadsKeepHeap: every reload that is not a successful forced
// full rebuild leaves the heap alone. Returns are requested
// synchronously inside Reload, so an idle state with no calls right
// after Reload returns proves none was requested.
func TestOtherReloadsKeepHeap(t *testing.T) {
	ok := func(context.Context) (*Snapshot, error) { return testSnapshot(), nil }
	for _, tc := range []struct {
		name    string
		build   func(context.Context) (*Snapshot, error)
		prime   bool // serve a snapshot first (unforced), as a timer reload finds one
		forced  bool
		wantErr bool
	}{
		{name: "unforced full (timer)", build: ok, prime: true},
		{name: "forced snapshot mode (boot fetch or cold start)", build: snapshotMode, forced: true},
		{name: "unforced snapshot mode (replica poll)", build: snapshotMode, prime: true},
		{name: "forced snapshot mode (replica SIGHUP)", build: snapshotMode, forced: true, prime: true},
		{name: "failed forced full", forced: true, wantErr: true,
			build: func(context.Context) (*Snapshot, error) { return nil, errors.New("rotten feed") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHeapHook(false)
			s := New(Config{
				Build:          tc.build,
				ReloadAttempts: 1,
				freeOSMemory:   h.free,
			})
			ctx := context.Background()
			if tc.prime {
				s.cfg.Build = ok
				if err := s.Reload(ctx, false); err != nil {
					t.Fatal(err)
				}
				s.cfg.Build = tc.build
			}
			err := s.Reload(ctx, tc.forced)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Reload = %v, want error %v", err, tc.wantErr)
			}
			if state, calls := s.heapReturn.Load(), h.calls.Load(); state != 0 || calls != 0 {
				t.Errorf("heap return state %d, calls %d; want none", state, calls)
			}
			if ev := s.LastReload(); ev == nil || ev.OK == tc.wantErr {
				t.Errorf("last reload = %+v", ev)
			}
		})
	}
}

// TestConcurrentHeapReturnsCoalesce: forced reloads that land while a
// heap return runs schedule exactly one more run between them, not one
// each.
func TestConcurrentHeapReturnsCoalesce(t *testing.T) {
	h := newHeapHook(true)
	s := New(Config{
		Build:        func(context.Context) (*Snapshot, error) { return testSnapshot(), nil },
		freeOSMemory: h.free,
	})
	ctx := context.Background()
	if err := s.Reload(ctx, true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first heap return never started")
	}
	// The first return is blocked in the hook; neither these reloads nor
	// the first listen would wait on it.
	for i := 0; i < 3; i++ {
		if err := s.Reload(ctx, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.heapReturn.Load(); got != 2 {
		t.Errorf("heap return state = %d, want 2 (running, one rerun pending)", got)
	}
	close(h.release)
	awaitIdle(t, s)
	if got := h.calls.Load(); got != 2 {
		t.Errorf("heap returns = %d, want 2 (the first plus one coalesced rerun)", got)
	}
}
