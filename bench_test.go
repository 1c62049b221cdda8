package ipleasing

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md §4), plus the
// DESIGN.md ablations. Run with:
//
//	go test -bench=. -benchmem .
//
// The numbers regenerated by each benchmark's companion experiment are
// printed by `go run ./cmd/experiments -exp all`.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
	"ipleasing/internal/whois"
)

// benchWorld lazily builds one shared dataset for every benchmark.
var benchWorld struct {
	once sync.Once
	dir  string
	ds   *Dataset
	res  *Result
	err  error
}

// TestMain removes the shared benchmark dataset directories after the
// run; the setups write them with os.MkdirTemp, which nothing else
// cleans up.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchWorld.dir != "" {
		os.RemoveAll(benchWorld.dir)
	}
	for _, d := range []string{benchEpochs.baseDir, benchEpochs.nextDir, benchSnap.dir} {
		if d != "" {
			os.RemoveAll(d)
		}
	}
	os.Exit(code)
}

func benchSetup(b *testing.B) (*Dataset, *Result) {
	b.Helper()
	benchWorld.once.Do(func() {
		dir, err := os.MkdirTemp("", "ipleasing-bench-")
		if err != nil {
			benchWorld.err = err
			return
		}
		benchWorld.dir = dir
		w := Generate(Config{Seed: 1, Scale: 0.02})
		if err := w.WriteDir(dir); err != nil {
			benchWorld.err = err
			return
		}
		if benchWorld.ds, benchWorld.err = LoadDataset(dir); benchWorld.err != nil {
			return
		}
		benchWorld.res = benchWorld.ds.Infer(Options{})
	})
	if benchWorld.err != nil {
		b.Fatal(benchWorld.err)
	}
	return benchWorld.ds, benchWorld.res
}

// BenchmarkGenerateWorld measures synthetic-world generation (the data
// substitution for the paper's bulk downloads).
func BenchmarkGenerateWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: int64(i), Scale: 0.005})
	}
}

// BenchmarkLoadDataset measures parsing the full on-disk dataset: five
// WHOIS dialects, two MRT RIBs, relationship/org datasets, abuse feeds,
// and the RPKI archive.
func BenchmarkLoadDataset(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadDataset(ds.Dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWHOISLoad measures step 1 of the pipeline alone: the five
// registry dumps of the bench world, each read and parsed by its
// dialect's loader one after another, with a strict collector
// accounting every record as a serving load does.
func BenchmarkWHOISLoad(b *testing.B) {
	ds, _ := benchSetup(b)
	var size int64
	for _, reg := range whois.Registries {
		fi, err := os.Stat(filepath.Join(ds.Dir, whois.DumpFileName(reg)))
		if err != nil {
			b.Fatal(err)
		}
		size += fi.Size()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, reg := range whois.Registries {
			c := diag.NewCollector("whois/"+reg.String(), diag.Strict())
			if _, err := whois.LoadFileWith(reg, filepath.Join(ds.Dir, whois.DumpFileName(reg)), c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: the full inference over all five
// registries (allocation trees, origin resolution, classification).
func BenchmarkTable1(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ds.Infer(Options{})
		if res.TotalLeased() == 0 {
			b.Fatal("no leases inferred")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: reference-set curation (broker
// matching, maintainer collection, negative collection) plus scoring.
func BenchmarkTable2(b *testing.B) {
	ds, res := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := ds.Curate()
		ev := Evaluate(ref, res)
		if ev.Confusion.Total() == 0 {
			b.Fatal("empty evaluation")
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the per-registry top-holder
// ranking.
func BenchmarkTable3(b *testing.B) {
	ds, res := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := ds.TopHolders(res, 3)
		if len(top) == 0 {
			b.Fatal("no holders")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: loading the per-prefix archive
// (monthly MRT RIBs + VRP snapshots) and segmenting lease periods.
func BenchmarkFig3(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ds.LoadTimeline()
		if err != nil {
			b.Fatal(err)
		}
		if len(s.LeasePeriods()) == 0 || len(s.AS0Gaps()) == 0 {
			b.Fatal("timeline not segmented")
		}
	}
}

// BenchmarkHijackerOverlap regenerates the §6.3 serial-hijacker
// correlation.
func BenchmarkHijackerOverlap(b *testing.B) {
	ds, res := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := ds.HijackerAnalysis(res)
		if ov.LeasedTotal == 0 {
			b.Fatal("no leased prefixes")
		}
	}
}

// BenchmarkAbuse regenerates the §6.4 ASN-DROP and ROA correlation.
func BenchmarkAbuse(b *testing.B) {
	ds, res := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ds.AnalyzeAbuse(res)
		if rep.LeasedTotal == 0 {
			b.Fatal("no leased prefixes")
		}
	}
}

// BenchmarkBaseline regenerates the §6.1 Prehn et al. comparison.
func BenchmarkBaseline(b *testing.B) {
	ds, res := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := ds.BaselineInfer()
		cmp := CompareBaseline(base, res)
		if cmp.Total() == 0 {
			b.Fatal("no comparison")
		}
	}
}

// BenchmarkLegacyExtension measures the §8 legacy-space inference.
func BenchmarkLegacyExtension(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infs := ds.InferLegacy(Options{})
		if len(infs) == 0 {
			b.Fatal("no legacy blocks")
		}
	}
}

// BenchmarkGeoExtension measures the §8 geolocation-disagreement
// analysis over the full routed table.
func BenchmarkGeoExtension(b *testing.B) {
	ds, res := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ds.AnalyzeGeo(res)
		if rep == nil || rep.LeasedTotal == 0 {
			b.Fatal("no geo analysis")
		}
	}
}

// BenchmarkMarketExtension measures the §8 longitudinal analysis: six
// monthly RIB loads plus six full inference runs.
func BenchmarkMarketExtension(b *testing.B) {
	ds, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps, err := ds.LoadMarket()
		if err != nil {
			b.Fatal(err)
		}
		rep := ds.AnalyzeMarket(snaps, Options{})
		if len(rep.Months) == 0 {
			b.Fatal("no market months")
		}
	}
}

// BenchmarkAblationRootLookup contrasts the paper's least-specific
// covering root lookup with an exact-only lookup (DESIGN.md ablation:
// aggregated roots degrade to unused without it).
func BenchmarkAblationRootLookup(b *testing.B) {
	ds, _ := benchSetup(b)
	b.Run("covering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Infer(Options{})
		}
	})
	b.Run("exact-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Infer(Options{RootLookupExactOnly: true})
		}
	})
}

// BenchmarkAblationSiblings contrasts inference with and without as2org
// sibling expansion (DESIGN.md ablation: the Vodafone false-positive
// mechanism).
func BenchmarkAblationSiblings(b *testing.B) {
	ds, _ := benchSetup(b)
	b.Run("with-siblings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Infer(Options{})
		}
	})
	b.Run("no-siblings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Infer(Options{DisableSiblingExpansion: true})
		}
	})
}

// benchEpochs lazily builds the delta-reload substrate: one world
// written as two epochs exactly one reload apart at 1% churn (the
// realistic month-over-month rate the ISSUE targets), with the base
// epoch loaded, inferred, and snapshotted as the previous generation
// and the successor epoch parsed and ready to re-infer.
var benchEpochs struct {
	once     sync.Once
	baseDir  string
	nextDir  string
	prev     *Generation
	prevSnap *serve.Snapshot
	nextDS   *Dataset
	err      error
}

func benchDeltaSetup(b *testing.B) {
	b.Helper()
	benchEpochs.once.Do(func() {
		w := Generate(Config{Seed: 1, Scale: 0.02})
		if benchEpochs.baseDir, benchEpochs.err = os.MkdirTemp("", "ipleasing-bench-base-"); benchEpochs.err != nil {
			return
		}
		if benchEpochs.err = w.WriteDir(benchEpochs.baseDir); benchEpochs.err != nil {
			return
		}
		Mutate(w, MutateConfig{Seed: 101, Churn: 0.01})
		if benchEpochs.nextDir, benchEpochs.err = os.MkdirTemp("", "ipleasing-bench-next-"); benchEpochs.err != nil {
			return
		}
		if benchEpochs.err = w.WriteDir(benchEpochs.nextDir); benchEpochs.err != nil {
			return
		}
		var prevDS *Dataset
		if prevDS, benchEpochs.err = LoadDataset(benchEpochs.baseDir); benchEpochs.err != nil {
			return
		}
		prevRes := prevDS.Infer(Options{})
		benchEpochs.prev = &Generation{Dataset: prevDS, Result: prevRes}
		benchEpochs.prevSnap = serve.NewSnapshot(prevRes, nil, nil)
		benchEpochs.nextDS, benchEpochs.err = LoadDataset(benchEpochs.nextDir)
	})
	if benchEpochs.err != nil {
		b.Fatal(benchEpochs.err)
	}
}

// BenchmarkFullReload measures what a serving reload cost before the
// delta path existed: re-parse the successor epoch from disk, re-infer
// all five registries from scratch, and rebuild the serving snapshot
// (LPM + ASN indexes + Table 1) wholesale.
func BenchmarkFullReload(b *testing.B) {
	benchDeltaSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := LoadDataset(benchEpochs.nextDir)
		if err != nil {
			b.Fatal(err)
		}
		snap := serve.NewSnapshot(ds.Infer(Options{}), nil, nil)
		if snap.NumInferences() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkServingReload measures what the daemon's full reload pays
// today: the serving-scoped load of the successor epoch (only the
// sources the inference reads), a full inference, and a serving
// snapshot built with the load's reports, exactly as the daemon's
// snapshot builder does it. cmd/benchgate gates it at <= 0.8x
// BenchmarkFullReload, whose load parses every source.
func BenchmarkServingReload(b *testing.B) {
	benchDeltaSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sum, res, err := LoadAndInferContext(ctx, benchEpochs.nextDir, StrictLoad(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		snap := serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
		if snap.NumInferences() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkDeltaReload measures the incremental replacement for
// everything after the parse: diff the successor epoch against the
// previous generation, re-classify only the dirty allocation-forest
// segments, and patch the previous snapshot's serving indexes. The
// successor's allocation-tree cache is reset every iteration so each
// pass pays the dirty registries' tree rebuilds, exactly as a real
// first delta reload would. Parsing is excluded: it is common to both
// reload modes and unchanged by the delta path (BenchmarkLoadDataset
// measures it alone); this benchmark isolates the work the delta path
// actually replaces.
func BenchmarkDeltaReload(b *testing.B) {
	benchDeltaSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEpochs.nextDS.trees = core.NewTreeCache()
		gen, rep := InferDelta(ctx, benchEpochs.nextDS, nil, Options{}, benchEpochs.prev, DeltaChurnFallback)
		if rep.Mode != serve.ModeDelta {
			b.Fatalf("delta path fell back to %q", rep.Mode)
		}
		snap := serve.PatchSnapshot(benchEpochs.prevSnap, gen.Result, rep.Plan, nil, nil)
		if snap == nil || snap.NumInferences() == 0 {
			b.Fatal("empty patched snapshot")
		}
	}
}

// BenchmarkInferBuild is BenchmarkDeltaReload's counterpart on the
// full path, over the same parsed successor epoch: a fresh
// allocation-tree cache every iteration, a full inference and a serving
// snapshot built from scratch (NewSnapshot). Like BenchmarkDeltaReload
// it excludes the parse, so the pair compares only the work the delta
// path replaces.
func BenchmarkInferBuild(b *testing.B) {
	benchDeltaSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEpochs.nextDS.trees = core.NewTreeCache()
		snap := serve.NewSnapshot(benchEpochs.nextDS.Infer(Options{}), nil, nil)
		if snap.NumInferences() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkAblationHyperSpecific contrasts the paper's /24 cut-off with
// keeping hyper-specific registrations.
func BenchmarkAblationHyperSpecific(b *testing.B) {
	ds, _ := benchSetup(b)
	b.Run("maxlen-24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Infer(Options{MaxPrefixLen: 24})
		}
	})
	b.Run("maxlen-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds.Infer(Options{MaxPrefixLen: 32})
		}
	})
}

// benchSnap lazily builds the snapshot-persistence substrate: the
// shared benchmark world's snapshot encoded once, plus a store
// directory with that generation durably published, so the decode and
// cold-start benchmarks measure O(bytes) restoration of exactly the
// data BenchmarkFullReload re-parses and re-infers.
var benchSnap struct {
	once sync.Once
	snap *serve.Snapshot
	data []byte
	dir  string
	err  error
}

func benchSnapshotSetup(b *testing.B) {
	b.Helper()
	_, res := benchSetup(b)
	benchSnap.once.Do(func() {
		benchSnap.snap = serve.NewSnapshot(res, nil, nil)
		benchSnap.data = snapstore.Encode(benchSnap.snap, 1)
		if benchSnap.dir, benchSnap.err = os.MkdirTemp("", "ipleasing-bench-snap-"); benchSnap.err != nil {
			return
		}
		st, err := snapstore.Open(benchSnap.dir, snapstore.StoreOptions{})
		if err != nil {
			benchSnap.err = err
			return
		}
		benchSnap.err = st.PublishEncoded(benchSnap.data)
	})
	if benchSnap.err != nil {
		b.Fatal(benchSnap.err)
	}
}

// BenchmarkSnapshotEncode measures serializing a serving snapshot into
// the checksummed binary generation format (the per-reload publish
// cost a -snapshot-dir daemon pays on its reload goroutine).
func BenchmarkSnapshotEncode(b *testing.B) {
	benchSnapshotSetup(b)
	b.SetBytes(int64(len(benchSnap.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data := snapstore.Encode(benchSnap.snap, 1); len(data) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkSnapshotDecode measures reconstructing serving indexes from
// encoded bytes, every checksum and structural invariant verified — the
// in-memory half of a cold start and of every replica fetch.
func BenchmarkSnapshotDecode(b *testing.B) {
	benchSnapshotSetup(b)
	b.SetBytes(int64(len(benchSnap.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _, err := snapstore.Decode(benchSnap.data)
		if err != nil {
			b.Fatal(err)
		}
		if snap.NumInferences() != benchSnap.snap.NumInferences() {
			b.Fatal("decode lost inferences")
		}
	}
}

// BenchmarkSnapshotColdStart measures the whole restart path a
// -snapshot-dir daemon takes instead of BenchmarkFullReload's
// parse+infer+index: open the store, scan it, and open the newest
// generation for serving through LoadCurrentOpen, the daemon's own
// recovery scan (mapped, every checksum and structural invariant
// verified). A cmd/benchgate absolute gate holds this to at least 5x
// faster than the full reload it replaces.
func BenchmarkSnapshotColdStart(b *testing.B) {
	benchSnapshotSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := snapstore.Open(benchSnap.dir, snapstore.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ld, err := st.LoadCurrentOpen(snapstore.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ld.Gen != 1 || ld.Snap.NumInferences() == 0 {
			b.Fatalf("cold start served generation %d with %d inferences", ld.Gen, ld.Snap.NumInferences())
		}
		ld.Snap.Release()
	}
}

// BenchmarkSnapshotMmapColdStart measures the zero-copy restart path:
// map the newest generation, verify every section checksum, and wrap
// the mapped bytes as serving views — no per-record decode, strings and
// index arrays alias the page cache. cmd/benchgate gates this at 1/40
// the ns/op and 1/2000 the allocs/op of BenchmarkFullReload.
func BenchmarkSnapshotMmapColdStart(b *testing.B) {
	benchSnapshotSetup(b)
	path := filepath.Join(benchSnap.dir, genName(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld, err := snapstore.OpenFile(path, snapstore.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ld.Gen != 1 || ld.Snap.NumInferences() == 0 {
			b.Fatalf("mmap cold start served generation %d with %d inferences", ld.Gen, ld.Snap.NumInferences())
		}
		ld.Snap.Release()
	}
}
