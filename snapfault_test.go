package ipleasing

// Snapshot-store fault injection: the faultgen damage matrix (tail
// truncation, per-section bit flips, checksum flips, garbage and empty
// files) applied to a live store, asserting the paranoid loading
// contract — a damaged generation is never served, recovery falls back
// generation by generation, and a leftover MANIFEST changes nothing.

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ipleasing/internal/faultgen"
	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
)

// storeFixture builds one serving snapshot and an open store.
func storeFixture(t *testing.T) (*serve.Snapshot, *snapstore.Store) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := Generate(Config{Seed: 33, Scale: 0.004}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	_, sum, res, err := LoadAndInfer(dir, LenientLoad(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
	snap.Dir = dir
	st, err := snapstore.Open(filepath.Join(t.TempDir(), "snaps"), snapstore.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return snap, st
}

// snapshotFaults builds the faultgen damage matrix for one encoded
// snapshot, feeding it the decoder's own section table.
func snapshotFaults(t *testing.T, data []byte) []faultgen.SnapshotFault {
	t.Helper()
	ranges, err := snapstore.SectionRanges(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]faultgen.SnapshotSection, len(ranges))
	for i, r := range ranges {
		secs[i] = faultgen.SnapshotSection{Name: r.Name, Off: r.Off, Len: r.Len}
	}
	return faultgen.SnapshotFaults(data, secs)
}

// TestSnapshotFaultMatrixNeverServesDamage encodes one generation,
// applies every fault in the matrix, and requires the decoder to
// reject each one with a typed corruption error.
func TestSnapshotFaultMatrixNeverServesDamage(t *testing.T) {
	snap, _ := storeFixture(t)
	intact := snapstore.Encode(snap, 1)
	faults := snapshotFaults(t, intact)
	if len(faults) < 9 {
		t.Fatalf("fault matrix has %d entries; expected header, footer, truncation, garbage, empty, and one per section", len(faults))
	}
	rnd := rand.New(rand.NewSource(5))
	for _, f := range faults {
		t.Run(f.Name, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				damaged := f.Apply(rnd, intact)
				if _, _, err := snapstore.Decode(damaged); err == nil {
					t.Fatalf("round %d: damaged snapshot decoded cleanly", round)
				} else if !errors.Is(err, snapstore.ErrCorrupt) {
					t.Fatalf("round %d: error %v does not wrap ErrCorrupt", round, err)
				}
			}
		})
	}
}

// TestOpenFileFaultMatrixFailsAtOpen applies the same damage matrix to
// generation files on disk and opens them through the mmap path. The
// validate-then-trust contract: every fault is caught by the eager
// per-section checksums at open time with a typed corruption error —
// never deferred to a SIGBUS or a garbage answer at query time.
func TestOpenFileFaultMatrixFailsAtOpen(t *testing.T) {
	snap, _ := storeFixture(t)
	intact := snapstore.Encode(snap, 1)
	faults := snapshotFaults(t, intact)
	rnd := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for _, f := range faults {
		t.Run(f.Name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				damaged := f.Apply(rnd, intact)
				path := filepath.Join(dir, genName(1))
				if err := os.WriteFile(path, damaged, 0o644); err != nil {
					t.Fatal(err)
				}
				ld, err := snapstore.OpenFile(path, snapstore.OpenOptions{})
				if err == nil {
					ld.Snap.Release()
					t.Fatalf("round %d: damaged generation opened cleanly", round)
				}
				if !errors.Is(err, snapstore.ErrCorrupt) {
					t.Fatalf("round %d: error %v does not wrap ErrCorrupt", round, err)
				}
			}
		})
	}
}

// TestStoreFallsBackThroughFaultMatrix stacks a damaged generation on
// top of an intact one for every fault kind and requires the daemon's
// recovery scan, LoadCurrentOpen, to serve the intact generation every
// time.
func TestStoreFallsBackThroughFaultMatrix(t *testing.T) {
	snap, _ := storeFixture(t)
	intact := snapstore.Encode(snap, 1)
	faults := snapshotFaults(t, intact)
	rnd := rand.New(rand.NewSource(6))
	for _, f := range faults {
		t.Run(f.Name, func(t *testing.T) {
			st, err := snapstore.Open(filepath.Join(t.TempDir(), "snaps"), snapstore.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PublishEncoded(intact); err != nil {
				t.Fatal(err)
			}
			// Newer generations exist but rotted on disk after publication.
			for gen := uint64(2); gen <= 3; gen++ {
				damaged := f.Apply(rnd, snapstore.Encode(snap, gen))
				name := filepath.Join(st.Dir(), genName(gen))
				if err := os.WriteFile(name, damaged, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ld, err := st.LoadCurrentOpen(snapstore.OpenOptions{})
			if err != nil {
				t.Fatalf("LoadCurrentOpen: %v", err)
			}
			defer ld.Snap.Release()
			if ld.Gen != 1 {
				t.Fatalf("served generation %d, want fallback to 1", ld.Gen)
			}
			if ld.Snap.NumInferences() != snap.NumInferences() {
				t.Fatalf("fallback serves %d inferences, want %d", ld.Snap.NumInferences(), snap.NumInferences())
			}
		})
	}
}

// TestStoreSurvivesManifestRot: the store keeps no pointer file, so a
// MANIFEST an older build left in the directory — naming a generation
// that does not exist, holding garbage, or gone — is ignored by
// recovery's scan and left alone by prune.
func TestStoreSurvivesManifestRot(t *testing.T) {
	snap, st := storeFixture(t)
	gen := uint64(7)
	if err := st.PublishEncoded(snapstore.Encode(snap, gen)); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(st.Dir(), "MANIFEST")
	for _, leftover := range []struct {
		name    string
		content string // "" removes the file
	}{
		{"stale", "gen-ffffffffffffffff.snap\n"},
		{"garbage", "\x00\xff not a generation \xfe\x01"},
		{"missing", ""},
	} {
		t.Run(leftover.name, func(t *testing.T) {
			var err error
			if leftover.content == "" {
				err = os.Remove(manifest)
			} else {
				err = os.WriteFile(manifest, []byte(leftover.content), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			ld, err := st.LoadCurrentOpen(snapstore.OpenOptions{})
			if err != nil {
				t.Fatalf("LoadCurrentOpen beside a %s MANIFEST: %v", leftover.name, err)
			}
			ld.Snap.Release()
			if ld.Gen != gen {
				t.Fatalf("served generation %d, want %d", ld.Gen, gen)
			}
			// A publish prunes generations, never the leftover.
			gen++
			if err := st.PublishEncoded(snapstore.Encode(snap, gen)); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(manifest)
			if leftover.content == "" {
				if !os.IsNotExist(err) {
					t.Fatalf("a publish created a MANIFEST (%q, %v)", got, err)
				}
			} else if err != nil || string(got) != leftover.content {
				t.Fatalf("MANIFEST after publish = %q, %v; want the leftover untouched", got, err)
			}
		})
	}
}

func genName(gen uint64) string {
	const hexdigits = "0123456789abcdef"
	name := []byte("gen-0000000000000000.snap")
	for i := 0; i < 16; i++ {
		name[4+15-i] = hexdigits[(gen>>(4*i))&0xf]
	}
	return string(name)
}
