package ipleasing

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestEndToEnd is the library's headline integration test: generate a
// world, render it to disk in every native format, load it all back, run
// the full methodology, and check the paper's shapes.
func TestEndToEnd(t *testing.T) {
	w := Generate(Config{Seed: 99, Scale: 0.01})
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := ds.Infer(Options{})

	// Inference over reloaded bytes must match the in-memory pipeline.
	memRes := w.Pipeline().Infer()
	if res.TotalLeased() != memRes.TotalLeased() {
		t.Fatalf("disk/memory mismatch: %d vs %d leased", res.TotalLeased(), memRes.TotalLeased())
	}
	if res.TotalBGPPrefixes != memRes.TotalBGPPrefixes {
		t.Fatalf("BGP prefix counts differ: %d vs %d", res.TotalBGPPrefixes, memRes.TotalBGPPrefixes)
	}

	// Table 1 shape: leased ≈ 4.1% of routed prefixes, RIPE biggest.
	if share := res.LeasedShareOfBGP(); share < 0.02 || share > 0.07 {
		t.Errorf("leased share = %.3f", share)
	}
	ripe := res.Regions[RIPE].Leased()
	for _, reg := range []Registry{ARIN, APNIC, AFRINIC, LACNIC} {
		if res.Regions[reg].Leased() >= ripe {
			t.Errorf("%v >= RIPE leases", reg)
		}
	}

	// Table 2 shape.
	ref := ds.Curate()
	ev := Evaluate(ref, res)
	if p := ev.Confusion.Precision(); p < 0.9 {
		t.Errorf("precision = %.3f", p)
	}
	if r := ev.Confusion.Recall(); r < 0.6 || r > 0.95 {
		t.Errorf("recall = %.3f", r)
	}

	// §6.4 abuse ratio ≈ 5×.
	rep := ds.AnalyzeAbuse(res)
	if ratio := rep.AbuseRatio(); ratio < 2 {
		t.Errorf("abuse ratio = %.1f", ratio)
	}

	// Table 3 + §6.3.
	holders := ds.TopHolders(res, 3)
	if len(holders[RIPE]) != 3 {
		t.Fatal("no RIPE top holders")
	}
	if fac := ds.TopFacilitators(res, 3); len(fac[RIPE]) != 3 {
		t.Fatal("no RIPE top facilitators")
	}
	if orig := ds.TopOriginators(res, 5); len(orig) != 5 {
		t.Fatal("no top originators")
	}
	ov := ds.HijackerAnalysis(res)
	if ov.LeasedHijackedShare() <= ov.NonLeasedHijackedShare() {
		t.Error("hijacker share inversion")
	}

	// Figure 3.
	series, err := ds.LoadTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(series.LeasePeriods()) != 5 || len(series.AS0Gaps()) != 4 {
		t.Errorf("timeline periods=%d gaps=%d", len(series.LeasePeriods()), len(series.AS0Gaps()))
	}

	// §6.1 baseline comparison.
	base := ds.BaselineInfer()
	cmp := CompareBaseline(base, res)
	if cmp.Total() == 0 || cmp.Both == 0 {
		t.Errorf("baseline comparison degenerate: %+v", cmp)
	}

	// CSV export works.
	infs := res.All()
	SortInferences(infs)
	if err := WriteInferencesCSV(filepath.Join(dir, "out.csv"), infs); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDatasetMissingDir(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

// TestExtensionsFacade exercises the §7/§8 façade surface end to end:
// legacy inference, relationship re-inference, geo and market analyses,
// and the Markdown report writer.
func TestExtensionsFacade(t *testing.T) {
	dir := t.TempDir()
	if err := Generate(Config{Seed: 23, Scale: 0.005}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := ds.Infer(Options{})

	// Legacy extension.
	legs := ds.InferLegacy(Options{})
	sum := SummarizeLegacy(legs)
	if sum.Total == 0 || sum.Counts[LegacyLeased] == 0 {
		t.Fatalf("legacy summary = %+v", sum)
	}
	var extra []Prefix
	for _, inf := range legs {
		if inf.Verdict == LegacyLeased {
			extra = append(extra, inf.Prefix)
		}
	}
	ref := ds.Curate()
	plain := Evaluate(ref, res)
	aug := EvaluateAugmented(ref, res, extra)
	if aug.Confusion.FN >= plain.Confusion.FN {
		t.Errorf("legacy augmentation did not reduce FNs: %d -> %d",
			plain.Confusion.FN, aug.Confusion.FN)
	}

	// Relationship re-inference.
	g, agreement, err := ds.InferRelationships()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 || agreement <= 0 || agreement > 1 {
		t.Fatalf("relinfer: %d edges, agreement %.2f", g.NumEdges(), agreement)
	}
	alt := ds.InferWithRelationships(g, Options{})
	if alt.TotalLeased() == 0 {
		t.Fatal("no leases with inferred relationships")
	}

	// Geo + market.
	if rep := ds.AnalyzeGeo(res); rep == nil || rep.LeasedShare() <= rep.NonLeasedShare() {
		t.Fatalf("geo report = %+v", rep)
	}
	snaps, err := ds.LoadMarket()
	if err != nil {
		t.Fatal(err)
	}
	if mrep := ds.AnalyzeMarket(snaps, Options{}); len(mrep.Months) != 6 {
		t.Fatalf("market months = %d", len(mrep.Months))
	}

	// Full Markdown report.
	var md strings.Builder
	if err := ds.WriteReport(&md, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Table 1", "## Table 3", "## §8 — market dynamics"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}
