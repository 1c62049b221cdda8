package ipleasing

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipleasing/internal/core"
	"ipleasing/internal/synth"
)

// writeWorld generates a small deterministic dataset on disk.
func writeWorld(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	world := Generate(Config{Seed: seed, Scale: 0.005})
	if err := world.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	return dir
}

// optionalSources are the files and directories a lenient load must
// tolerate losing, with the analyses that drop out alongside them.
var optionalSources = []struct {
	path     string // relative to the dataset dir
	analysis string // entry expected in SkippedAnalyses
}{
	{synth.FileHijackers, "hijacker-overlap"},
	{synth.FileBrokers, "evaluation"},
	{synth.DirASNDrop, "abuse-correlation"},
	{synth.DirRPKI, "roa-validation"},
	{synth.DirGeo, "geolocation"},
	{synth.FileGroundTruth, "evaluation"},
	{synth.FileEvalExclusions, "evaluation"},
	{synth.FileEvalISPs, "evaluation"},
	{synth.DirTimeline, "timeline"},
	{synth.DirMarket, "market-dynamics"},
}

func TestLenientLoadDegradesGracefully(t *testing.T) {
	dir := writeWorld(t, 41)
	for _, src := range optionalSources {
		if err := os.RemoveAll(filepath.Join(dir, src.path)); err != nil {
			t.Fatalf("remove %s: %v", src.path, err)
		}
	}

	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("strict LoadDataset succeeded on a dataset with missing sources")
	}

	ds, sum, err := LoadDatasetReport(dir, LenientLoad())
	if err != nil {
		t.Fatalf("lenient LoadDatasetReport: %v", err)
	}
	if sum.Clean() {
		t.Error("summary reports clean despite missing sources")
	}
	for _, source := range []string{"hijackers", "brokers", "drop", "rpki",
		"geo", "truth", "exclusions", "eval-isps"} {
		rep := sum.Report(source)
		if rep == nil {
			t.Errorf("no report for %s", source)
			continue
		}
		if !rep.Missing {
			t.Errorf("report %s not marked missing: %s", source, rep)
		}
	}
	for _, src := range optionalSources {
		found := false
		for _, a := range sum.SkippedAnalyses {
			if a == src.analysis {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("SkippedAnalyses %v does not cover %s (lost %s)",
				sum.SkippedAnalyses, src.analysis, src.path)
		}
	}
	if ds.Load != sum {
		t.Error("Dataset.Load does not carry the load summary")
	}

	// The core inference and every facade analysis must run — degraded,
	// not panicking — on the partial dataset.
	res := ds.Infer(Options{})
	if res.TotalBGPPrefixes == 0 {
		t.Error("degraded inference saw no BGP prefixes")
	}
	if ab := ds.AnalyzeAbuse(res); ab == nil {
		t.Error("AnalyzeAbuse returned nil on degraded dataset")
	}
	ov := ds.HijackerAnalysis(res)
	if share := ov.OriginatorHijackerShare(); share != 0 {
		t.Errorf("hijacker share %v without a hijacker list", share)
	}
	ref := ds.Curate()
	if n := len(ref.Positives); n != 0 {
		t.Errorf("curated %d positives without broker data", n)
	}
	_ = Evaluate(ref, res)
	if g := ds.AnalyzeGeo(res); g != nil {
		t.Error("AnalyzeGeo returned a report without a geo panel")
	}
	var md strings.Builder
	if err := ds.WriteReport(&md, res); err != nil {
		t.Fatalf("WriteReport on degraded dataset: %v", err)
	}
	if !strings.Contains(md.String(), "Degraded dataset") {
		t.Error("degraded report lacks the skipped-analyses banner")
	}
	if !strings.Contains(md.String(), "## Table 1") {
		t.Error("degraded report lacks Table 1")
	}
	for _, skipped := range []string{"## Table 2", "## Figure 3", "## §6.4", "## §8 — geolocation", "## §8 — market"} {
		if strings.Contains(md.String(), skipped) {
			t.Errorf("degraded report renders the skipped section %q", skipped)
		}
	}
}

// TestWriteReportFailsOnDamagedTimeline: a timeline directory that is
// present but unreadable fails the report. Only an analysis the load
// summary lists as skipped may drop out of it silently.
func TestWriteReportFailsOnDamagedTimeline(t *testing.T) {
	dir := writeWorld(t, 45)
	damaged := filepath.Join(dir, synth.DirTimeline, "prefix.txt")
	if err := os.WriteFile(damaged, []byte("not a prefix\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(dir)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	res := ds.Infer(Options{})
	for _, ids := range [][]string{nil, {"fig3"}} {
		if err := ds.WriteReport(io.Discard, res, ids...); err == nil {
			t.Errorf("WriteReport(%q) succeeded over a damaged timeline", ids)
		}
	}
	if err := ds.WriteReport(io.Discard, res, "table1"); err != nil {
		t.Errorf("WriteReport(table1) needs no timeline, failed: %v", err)
	}
}

func TestLenientLoadStillRequiresCoreSources(t *testing.T) {
	for _, name := range []string{synth.FileASRel, synth.FileAS2Org} {
		dir := writeWorld(t, 43)
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadDatasetReport(dir, LenientLoad()); err == nil {
			t.Errorf("lenient load succeeded without required source %s", name)
		}
	}
}

// TestStrictLenientEquivalenceCleanData locks the tentpole's equivalence
// guarantee: over a clean dataset the lenient loader produces exactly the
// dataset the strict loader does.
func TestStrictLenientEquivalenceCleanData(t *testing.T) {
	dir := writeWorld(t, 47)

	strictDS, strictSum, err := LoadDatasetReport(dir, StrictLoad())
	if err != nil {
		t.Fatalf("strict load: %v", err)
	}
	lenientDS, lenientSum, err := LoadDatasetReport(dir, LenientLoad())
	if err != nil {
		t.Fatalf("lenient load: %v", err)
	}
	for _, sum := range []*LoadSummary{strictSum, lenientSum} {
		if !sum.Clean() {
			for _, r := range sum.Reports {
				if !r.Clean() {
					t.Errorf("unclean source on clean data: %s", r)
				}
			}
		}
		if len(sum.SkippedAnalyses) != 0 {
			t.Errorf("clean data skipped analyses: %v", sum.SkippedAnalyses)
		}
	}
	if got, want := len(strictSum.Reports), len(Registries)+12; got != want {
		t.Errorf("report count = %d, want %d", got, want)
	}

	var strictCSV, lenientCSV bytes.Buffer
	for _, pair := range []struct {
		ds  *Dataset
		buf *bytes.Buffer
	}{{strictDS, &strictCSV}, {lenientDS, &lenientCSV}} {
		res := pair.ds.Infer(Options{})
		infs := res.All()
		SortInferences(infs)
		if err := core.WriteCSV(pair.buf, infs); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(strictCSV.Bytes(), lenientCSV.Bytes()) {
		t.Error("strict and lenient inference outputs differ on clean data")
	}
}
