package snapstore

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ipleasing/internal/telemetry"
)

func openTestStore(t *testing.T, opts StoreOptions) *Store {
	t.Helper()
	st, err := Open(filepath.Join(t.TempDir(), "snapshots"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStorePublishLoadRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	st := openTestStore(t, StoreOptions{})

	if _, err := st.LoadCurrentOpen(OpenOptions{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store: %v, want ErrNoSnapshot", err)
	}
	if err := st.PublishEncoded(Encode(snap, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.PublishEncoded(Encode(snap, 2)); err != nil {
		t.Fatal(err)
	}

	ld, err := st.LoadCurrentOpen(OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Snap.Release()
	if ld.Gen != 2 {
		t.Fatalf("loaded generation %d, want 2", ld.Gen)
	}
	assertServesIdentical(t, "store round trip", ld.Snap, snap)

	if newest, ok := st.NewestGeneration(); !ok || newest != 2 {
		t.Fatalf("NewestGeneration = %d, %v; want 2, true", newest, ok)
	}
	// The store is its generation files: no temp litter, no pointer
	// file beside them.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{genFileName(1), genFileName(2)}; !slices.Equal(names, want) {
		t.Fatalf("store holds %q, want exactly %q", names, want)
	}
}

func TestStoreRetention(t *testing.T) {
	snap := testSnapshot(t)
	st := openTestStore(t, StoreOptions{Keep: 2})
	for gen := uint64(1); gen <= 5; gen++ {
		if err := st.PublishEncoded(Encode(snap, gen)); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 5 || gens[1] != 4 {
		t.Fatalf("retained generations = %v, want [5 4]", gens)
	}
}

func TestStoreAllGenerationsCorrupt(t *testing.T) {
	snap := testSnapshot(t)
	st := openTestStore(t, StoreOptions{})
	for gen := uint64(1); gen <= 3; gen++ {
		data := Encode(snap, gen)
		data[len(data)/2] ^= 0x40
		path := filepath.Join(st.Dir(), genFileName(gen))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.LoadCurrentOpen(OpenOptions{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt store: %v, want ErrNoSnapshot", err)
	}
}

// TestStoreSkipsLegacyVersion: a generation file of the previous format
// version is skipped by the recovery scan like any corrupt one — an
// intact older generation beneath it serves, and a store holding only
// the old-version file has nothing loadable.
func TestStoreSkipsLegacyVersion(t *testing.T) {
	snap := testSnapshot(t)
	writeGen := func(st *Store, gen uint64, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(st.Dir(), genFileName(gen)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	legacy := stampVersion(Encode(snap, 2), 2)

	t.Run("over-intact", func(t *testing.T) {
		m := NewMetrics(telemetry.NewRegistry())
		st := openTestStore(t, StoreOptions{Metrics: m})
		if err := st.PublishEncoded(Encode(snap, 1)); err != nil {
			t.Fatal(err)
		}
		writeGen(st, 2, legacy)
		ld, err := st.LoadCurrentOpen(OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ld.Snap.Release()
		if ld.Gen != 1 {
			t.Fatalf("served generation %d, want the intact generation 1", ld.Gen)
		}
		if v := m.load.With("corrupt").Value(); v != 1 {
			t.Errorf("snapshot_load_total{outcome=corrupt} = %d, want 1", v)
		}
		if v := m.load.With("ok").Value(); v != 1 {
			t.Errorf("snapshot_load_total{outcome=ok} = %d, want 1", v)
		}
	})
	t.Run("alone", func(t *testing.T) {
		st := openTestStore(t, StoreOptions{})
		writeGen(st, 2, legacy)
		if _, err := st.LoadCurrentOpen(OpenOptions{}); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("store holding only a v2 file: %v, want ErrNoSnapshot", err)
		}
	})
}

func TestStoreRefusesToPublishCorruptBytes(t *testing.T) {
	st := openTestStore(t, StoreOptions{})
	if err := st.PublishEncoded([]byte("definitely not a snapshot")); err == nil {
		t.Fatal("garbage accepted for publication")
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 0 {
		t.Fatalf("refused publish left generations: %v", gens)
	}
}

func TestStoreMetricsOutcomes(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	snap := testSnapshot(t)
	st, err := Open(filepath.Join(t.TempDir(), "s"), StoreOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PublishEncoded(Encode(snap, 1)); err != nil {
		t.Fatal(err)
	}
	st.PublishEncoded([]byte("junk")) // counted as error
	ld, err := st.LoadCurrentOpen(OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ld.Snap.Release()
	if v := m.publish.With("ok").Value(); v != 1 {
		t.Errorf("snapshot_publish_total{outcome=ok} = %d, want 1", v)
	}
	if v := m.publish.With("error").Value(); v != 1 {
		t.Errorf("snapshot_publish_total{outcome=error} = %d, want 1", v)
	}
	if v := m.load.With("ok").Value(); v != 1 {
		t.Errorf("snapshot_load_total{outcome=ok} = %d, want 1", v)
	}
	if m.bytes.Value() == 0 {
		t.Error("snapshot_bytes gauge is zero after publish and load")
	}
}
