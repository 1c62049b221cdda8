package synth

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"ipleasing/internal/core"
	"ipleasing/internal/whois"
)

// testConfig is a small, fast world.
func testConfig() Config {
	return Config{Seed: 7, Scale: 0.005}
}

// TestGenerateDeterministic requires a seed to fix the world byte for
// byte: every file WriteDir writes, before and after one Mutate epoch.
// Go randomises map iteration order on every range, so a draw from the
// seeded RNG that follows map order shows up as a difference between
// repeats.
func TestGenerateDeterministic(t *testing.T) {
	var want map[string][]byte
	for i := 0; i < 3; i++ {
		w := Generate(testConfig())
		got := writtenFiles(t, w, "")
		Mutate(w, MutateConfig{Seed: 11, Churn: 0.05})
		for name, b := range writtenFiles(t, w, "mutated/") {
			got[name] = b
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("repeat %d wrote %d files, first run %d", i, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Errorf("repeat %d: %s differs from the first run", i, name)
			}
		}
	}
}

// writtenFiles writes w with WriteDir and returns every file's bytes,
// keyed by prefix plus the path relative to the dataset directory.
func writtenFiles(t *testing.T, w *World, prefix string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[prefix+rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestInferenceRecoversIntent is the generator's core contract: running
// the paper's methodology over the synthetic world recovers the planted
// category for (nearly) every leaf.
func TestInferenceRecoversIntent(t *testing.T) {
	w := Generate(testConfig())
	res := w.Pipeline().Infer()

	byPrefix := make(map[string]core.Category)
	for _, inf := range res.All() {
		byPrefix[inf.Prefix.String()] = inf.Category
	}
	mismatches := 0
	total := 0
	for _, tr := range w.Truth {
		if tr.Legacy {
			// Legacy blocks must be absent from the inference output.
			if _, ok := byPrefix[tr.Prefix.String()]; ok {
				t.Errorf("legacy block %v was classified", tr.Prefix)
			}
			continue
		}
		total++
		got, ok := byPrefix[tr.Prefix.String()]
		if !ok {
			t.Errorf("no inference for planted leaf %v", tr.Prefix)
			mismatches++
			continue
		}
		if got != tr.Intended {
			mismatches++
			if mismatches < 10 {
				t.Errorf("%v: inferred %v, intended %v", tr.Prefix, got, tr.Intended)
			}
		}
	}
	if total == 0 {
		t.Fatal("no truth records")
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d planted leaves misclassified", mismatches, total)
	}
}

func TestWorldShapes(t *testing.T) {
	w := Generate(Config{Seed: 3, Scale: 0.01})
	res := w.Pipeline().Infer()

	// RIPE must dominate the lease counts (Table 1).
	ripe := res.Regions[whois.RIPE].Leased()
	for _, reg := range []whois.Registry{whois.ARIN, whois.APNIC, whois.AFRINIC, whois.LACNIC} {
		if other := res.Regions[reg].Leased(); other >= ripe {
			t.Errorf("%v leased %d >= RIPE %d", reg, other, ripe)
		}
	}
	// Leased share of routed prefixes near the 4.1% target.
	share := res.LeasedShareOfBGP()
	if share < 0.02 || share > 0.07 {
		t.Errorf("leased BGP share = %.3f, want ~0.041", share)
	}
	// Abuse lists and brokers exist at sensible sizes.
	if w.Hijackers.Len() == 0 || len(w.Drop.Months) != 4 {
		t.Fatal("abuse lists missing")
	}
	if w.Brokers.Len() < 100 {
		t.Fatalf("broker list = %d", w.Brokers.Len())
	}
	if len(w.RPKI.Snapshots) != 4 {
		t.Fatalf("rpki snapshots = %d", len(w.RPKI.Snapshots))
	}
	// Timeline present with alternating leases and AS0 gaps.
	if w.Timeline == nil || len(w.Timeline.Points) != 25 {
		t.Fatal("timeline missing")
	}
	sawAS0, sawLease := false, false
	for _, pt := range w.Timeline.Points {
		if len(pt.Origins) == 0 && len(pt.ROAASNs) == 1 && pt.ROAASNs[0] == 0 {
			sawAS0 = true
		}
		if len(pt.Origins) == 1 {
			sawLease = true
		}
	}
	if !sawAS0 || !sawLease {
		t.Fatal("timeline lacks AS0 gaps or lease periods")
	}
	// Broker-managed truth exists for the evaluation.
	brokerManaged, inactive, legacy := 0, 0, 0
	for _, tr := range w.Truth {
		if tr.BrokerManaged {
			brokerManaged++
		}
		if tr.Inactive {
			inactive++
		}
		if tr.Legacy {
			legacy++
		}
	}
	if brokerManaged == 0 || inactive == 0 || legacy == 0 {
		t.Fatalf("eval artefacts missing: broker=%d inactive=%d legacy=%d",
			brokerManaged, inactive, legacy)
	}
	if len(w.Exclusions) == 0 {
		t.Fatal("no curation exclusions")
	}
}

func TestWriteDirRoundTripArtifacts(t *testing.T) {
	w := Generate(testConfig())
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	// Spot-check presence of every artefact.
	for _, name := range []string{
		"ripe.db", "arin.db", "apnic.db", "afrinic.db", "lacnic.db",
		FileRIBRouteviews, FileRIBRIS, FileASRel, FileAS2Org,
		FileHijackers, FileBrokers, FileGroundTruth, FileEvalExclusions, FileEvalISPs,
		FileTimelinePrefix,
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artefact %s: %v", name, err)
		}
	}
	for _, sub := range []string{DirASNDrop, DirRPKI, filepath.Join(DirTimeline, "rpki")} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil || len(entries) == 0 {
			t.Errorf("empty dir %s: %v", sub, err)
		}
	}
	// Truth round trip.
	f, err := os.Open(filepath.Join(dir, FileGroundTruth))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadTruth(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(w.Truth) {
		t.Fatalf("truth round trip: %d != %d", len(recs), len(w.Truth))
	}
	for i := range recs {
		if recs[i] != w.Truth[i] {
			t.Fatalf("truth %d: %+v != %+v", i, recs[i], w.Truth[i])
		}
	}
}

func TestScaleCount(t *testing.T) {
	if scaleCount(0, 0.5) != 0 {
		t.Fatal("zero should stay zero")
	}
	if scaleCount(1, 0.001) != 1 {
		t.Fatal("nonzero should stay >=1")
	}
	if scaleCount(1000, 0.02) != 20 {
		t.Fatal("rounding wrong")
	}
}

func TestTruthParseErrors(t *testing.T) {
	for _, bad := range []string{
		"RIPE,1.2.3.0/24,unused,true,false,false\n",        // 6 fields
		"NOPE,1.2.3.0/24,unused,true,false,false,false\n",  // bad registry
		"RIPE,bad,unused,true,false,false,false\n",         // bad prefix
		"RIPE,1.2.3.0/24,nope,true,false,false,false\n",    // bad category
		"RIPE,1.2.3.0/24,unused,maybe,false,false,false\n", // bad bool
	} {
		if _, err := ReadTruth(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("ReadTruth(%q) succeeded", bad)
		}
	}
}
