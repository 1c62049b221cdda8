package snapstore

// Tests for the zero-copy mmap serving path: open-time validation,
// rejection of other format versions, the refcounted unmap-after-drain
// lifecycle, and byte-identity between the mapped snapshot and the
// in-memory original.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ipleasing"
	"ipleasing/internal/serve"
)

func writeSnapFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gen.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenFileServesIdentical proves the mapped snapshot answers every
// query surface byte-identically to the in-memory original, and that
// releasing the serving snapshot's reference unmaps the file.
func TestOpenFileServesIdentical(t *testing.T) {
	want := testSnapshot(t)
	path := writeSnapFile(t, Encode(want, 11))
	ld, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if ld.Gen != 11 {
		t.Fatalf("generation = %d, want 11", ld.Gen)
	}
	if mmapSupported && (ld.Backing == nil || ld.Snap.LoadMode() != serve.LoadModeMmap) {
		t.Fatalf("load mode %q backing %v, want mmap-backed on this platform", ld.Snap.LoadMode(), ld.Backing)
	}
	assertServesIdentical(t, "mapped", ld.Snap, want)
	if ld.Backing != nil {
		if !ld.Backing.Active() {
			t.Fatal("mapping inactive while the snapshot serves")
		}
		ld.Snap.Release() // the creation reference
		if ld.Backing.Active() {
			t.Fatal("mapping still active after the last reference")
		}
	}
}

// TestOpenFileRetainsLittleHeap: a mapped open serves every record,
// string and index from the file's pages, so what it leaves on the heap
// — slice headers, the LPM's root table, meta and load reports — must
// stay under a tenth of the file, at a scale where the records alone
// are most of a megabyte.
func TestOpenFileRetainsLittleHeap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	path, size := writeScaleGeneration(t, 0.02)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ld, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if ld.Snap.NumInferences() == 0 {
		t.Fatal("opened an empty generation")
	}
	t.Logf("%d-byte generation, %d records: the open retained %d heap bytes", size, ld.Snap.NumInferences(), retained)
	if retained >= size/10 {
		t.Errorf("the open retained %d heap bytes, want under a tenth of the %d-byte file", retained, size)
	}
	ld.Snap.Release()
}

// writeScaleGeneration writes one generation of a seeded world at scale
// and returns its path and size. The world, its result and the built
// snapshot are garbage when it returns.
func writeScaleGeneration(t *testing.T, scale float64) (string, int64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ipleasing.Generate(ipleasing.Config{Seed: 1, Scale: scale}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	_, sum, res, err := ipleasing.LoadAndInfer(dir, ipleasing.LenientLoad(), ipleasing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses), 1)
	return writeSnapFile(t, data), int64(len(data))
}

// TestOpenFileRejectsLegacyVersion: a previous-version generation
// file is rejected at open with the typed version error — there is no
// heap fallback for it.
func TestOpenFileRejectsLegacyVersion(t *testing.T) {
	path := writeSnapFile(t, stampVersion(Encode(testSnapshot(t), 13), 2))
	ld, err := OpenFile(path, OpenOptions{})
	if err == nil {
		ld.Snap.Release()
		t.Fatal("v2 generation file opened")
	}
	if !errors.Is(err, ErrBadVersion) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 file: %v, want ErrBadVersion wrapping ErrCorrupt", err)
	}
}

// TestMappedUnmapWaitsForDrain simulates the server's swap: with
// requests in flight (snapshot references held), dropping the creation
// reference must keep the mapping readable; only the last in-flight
// release unmaps.
func TestMappedUnmapWaitsForDrain(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	want := testSnapshot(t)
	path := writeSnapFile(t, Encode(want, 21))
	ld, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := ld.Snap
	// Two in-flight requests pin the snapshot.
	if !snap.Acquire() || !snap.Acquire() {
		t.Fatal("Acquire failed on a live snapshot")
	}
	// The swap path releases the creation reference after installing a
	// successor.
	snap.Release()
	if !ld.Backing.Active() {
		t.Fatal("mapping unmapped with requests in flight")
	}
	// The draining requests still read mapped memory.
	if len(snap.Table1()) == 0 {
		t.Fatal("Table1 empty on a drained-to snapshot")
	}
	if snap.LookupAddr(snap.Inference(0).Prefix.First()) == nil {
		t.Fatal("a draining snapshot misses its own first leaf")
	}
	snap.Release()
	if !ld.Backing.Active() {
		t.Fatal("mapping unmapped before the last in-flight request finished")
	}
	snap.Release()
	if ld.Backing.Active() {
		t.Fatal("mapping still active after the drain completed")
	}
	if snap.Acquire() {
		t.Fatal("Acquire succeeded on a fully released snapshot")
	}
}

// TestSwapUnderLoadDrainsOldMappings drives a serve.Server through
// repeated reloads of mmap-backed generations while concurrent clients
// hammer the data endpoints (run under -race in CI). Every response
// must complete against a coherent mapping, and once the load stops,
// every superseded generation's mapping must be unmapped — the old
// mapping lives exactly until its last in-flight request drains.
func TestSwapUnderLoadDrainsOldMappings(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	want := testSnapshot(t)
	dir := t.TempDir()
	const gens = 5
	paths := make([]string, gens)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("g%d.snap", i))
		if err := os.WriteFile(paths[i], Encode(want, uint64(i+1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var backings []*Mapped
	next := 0
	build := func(ctx context.Context) (*serve.Snapshot, error) {
		mu.Lock()
		i := next % gens
		next++
		mu.Unlock()
		ld, err := OpenFile(paths[i], OpenOptions{})
		if err != nil {
			return nil, err
		}
		if ld.Backing == nil {
			return nil, errors.New("expected a mapped load")
		}
		mu.Lock()
		backings = append(backings, ld.Backing)
		mu.Unlock()
		return ld.Snap, nil
	}
	s := serve.New(serve.Config{Build: build})
	ctx := context.Background()
	if err := s.Reload(ctx, true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	probe := fmt.Sprintf("/lookup?ip=%v", want.Inference(0).Prefix.First())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + probe)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || len(body) == 0 {
					t.Errorf("status %d body %d bytes mid-swap", resp.StatusCode, len(body))
					return
				}
			}
		}()
	}
	for r := 0; r < 8; r++ {
		if err := s.Reload(ctx, true); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(backings) < 2 {
		t.Fatalf("only %d generations opened", len(backings))
	}
	for i, b := range backings[:len(backings)-1] {
		if b.Active() {
			t.Errorf("superseded mapping %d still active after drain", i)
		}
	}
	if !backings[len(backings)-1].Active() {
		t.Error("serving generation's mapping was unmapped")
	}
}
