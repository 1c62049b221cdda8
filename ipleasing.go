// Package ipleasing infers leased IPv4 address space from registry and
// routing data, reproducing "Sublet Your Subnet: Inferring IP Leasing in
// the Wild" (IMC 2024).
//
// The package is a façade over the internal substrates: WHOIS dialect
// parsers for all five RIRs, an MRT/BGP RIB codec, RPKI/ROA validation,
// CAIDA-style AS relationship and AS-to-organisation datasets, abuse
// lists, broker registries, and a deterministic synthetic-internet
// generator used in place of the paper's bulk data downloads.
//
// Typical use:
//
//	world := ipleasing.Generate(ipleasing.Config{Seed: 1})
//	if err := world.WriteDir("dataset"); err != nil { ... }
//	ds, err := ipleasing.LoadDataset("dataset")
//	res := ds.Infer(ipleasing.Options{})
//	fmt.Printf("leased: %d (%.1f%% of routed prefixes)\n",
//		res.TotalLeased(), 100*res.LeasedShareOfBGP())
package ipleasing

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"

	"ipleasing/internal/abuse"
	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/baseline"
	"ipleasing/internal/bgp"
	"ipleasing/internal/brokers"
	"ipleasing/internal/core"
	"ipleasing/internal/ecosystem"
	"ipleasing/internal/eval"
	"ipleasing/internal/geoip"
	"ipleasing/internal/hijack"
	"ipleasing/internal/legacy"
	"ipleasing/internal/market"
	"ipleasing/internal/netutil"
	"ipleasing/internal/report"
	"ipleasing/internal/rpki"
	"ipleasing/internal/spamhaus"
	"ipleasing/internal/synth"
	"ipleasing/internal/timeline"
	"ipleasing/internal/whois"
)

// Re-exported types: the full public API surface of the library.
type (
	// Config controls synthetic-world generation (see the paper-shape
	// defaults in internal/synth).
	Config = synth.Config
	// World is a generated synthetic Internet.
	World = synth.World
	// TruthRecord is planted ground truth for one leaf prefix.
	TruthRecord = synth.TruthRecord
	// MutateConfig controls the synthesis of a churned successor epoch.
	MutateConfig = synth.MutateConfig
	// MutateStats counts the mutations one Mutate call applied.
	MutateStats = synth.MutateStats

	// Registry identifies one of the five RIRs.
	Registry = whois.Registry
	// Prefix is an IPv4 CIDR prefix.
	Prefix = netutil.Prefix

	// Options tunes the inference pipeline (ablations included).
	Options = core.Options
	// Result is a full inference run's output.
	Result = core.Result
	// Inference is one leaf prefix's classification.
	Inference = core.Inference
	// Category is the paper's group classification.
	Category = core.Category

	// Reference is the curated evaluation dataset (paper §5.3).
	Reference = eval.Reference
	// Evaluation is a scored evaluation (paper Table 2).
	Evaluation = eval.Evaluation
	// ISPRef names a negative-set ISP.
	ISPRef = eval.ISPRef

	// AbuseReport is the §6.4 abuse correlation.
	AbuseReport = abuse.Report
	// HijackerOverlap is the §6.3 serial-hijacker correlation.
	HijackerOverlap = ecosystem.HijackerOverlap
	// OrgCount ranks holders/facilitators.
	OrgCount = ecosystem.OrgCount
	// ASNCount ranks originators.
	ASNCount = ecosystem.ASNCount

	// TimelineSeries is a prefix's lease history (Figure 3).
	TimelineSeries = timeline.Series

	// GeoPanel is a set of geolocation provider databases (§8 extension).
	GeoPanel = geoip.Panel
	// GeoReport contrasts geolocation disagreement over leased vs
	// non-leased prefixes.
	GeoReport = geoip.Report

	// MarketSnapshot is one month's routing view (§8 extension).
	MarketSnapshot = market.Snapshot
	// MarketReport is the longitudinal lease-churn analysis.
	MarketReport = market.Report
	// MarketMonthStats is one month's market activity.
	MarketMonthStats = market.MonthStats

	// BaselineInference is the Prehn et al. maintainer heuristic's
	// verdict.
	BaselineInference = baseline.Inference
	// BaselineComparison contrasts the two methods (§6.1).
	BaselineComparison = baseline.Comparison

	// LegacyInference is the legacy-space extension's verdict (§8).
	LegacyInference = legacy.Inference
	// LegacyVerdict classifies one legacy block.
	LegacyVerdict = legacy.Verdict
	// LegacySummary aggregates legacy verdicts.
	LegacySummary = legacy.Summary
)

// Legacy verdict constants.
const (
	LegacyUnadvertised   = legacy.Unadvertised
	LegacyHolderOperated = legacy.HolderOperated
	LegacyLeased         = legacy.Leased
	LegacyNoExpectation  = legacy.NoExpectation
)

// Registry constants.
const (
	RIPE    = whois.RIPE
	ARIN    = whois.ARIN
	APNIC   = whois.APNIC
	AFRINIC = whois.AFRINIC
	LACNIC  = whois.LACNIC
)

// Registries lists the five RIRs in canonical order.
var Registries = whois.Registries

// Category constants.
const (
	Unused               = core.Unused
	AggregatedCustomer   = core.AggregatedCustomer
	ISPCustomer          = core.ISPCustomer
	LeasedNoRootOrigin   = core.LeasedNoRootOrigin
	DelegatedCustomer    = core.DelegatedCustomer
	LeasedWithRootOrigin = core.LeasedWithRootOrigin
	Orphan               = core.Orphan
)

// Generate builds a synthetic world with paper-shaped defaults.
func Generate(cfg Config) *World { return synth.Generate(cfg) }

// Mutate perturbs a generated world in place into a plausible successor
// epoch — the same Internet one registry-and-RIB refresh later — for
// exercising reloads over churned inputs: a full reload per epoch, or
// the incremental library path (see InferDelta).
func Mutate(w *World, cfg MutateConfig) *MutateStats { return synth.Mutate(w, cfg) }

// Dataset is a loaded dataset directory, parsed from its on-disk
// formats. LoadDataset and LoadDatasetReport fill every field the
// paper's methodology and its analyses consume. The serving loaders
// (LoadAndInfer, LoadAndInferContext) fill only the inference inputs
// (Whois, Table, Rel, Orgs) and Load; the remaining source fields,
// RPKI included, stay nil.
type Dataset struct {
	Dir string

	Whois     *whois.Dataset
	Table     *bgp.Table
	Rel       *asrel.Graph
	Orgs      *as2org.Map
	Drop      *spamhaus.Archive
	Hijackers *hijack.Set
	Brokers   *brokers.List
	RPKI      *rpki.Archive

	Truth      []TruthRecord
	Exclusions []Prefix
	EvalISPs   []ISPRef
	Geo        *GeoPanel // nil when the dataset carries no geo directory

	// Load is the per-source accounting of the load that produced this
	// dataset: which sources were missing, what was skipped, and which
	// analyses a degraded dataset cannot run.
	Load *LoadSummary

	// trees caches the per-registry allocation trees across Infer runs
	// over this dataset (they depend only on the WHOIS data and the
	// hyper-specific cut-off). Options.DisableCaches bypasses it.
	trees *core.TreeCache
}

// LoadDataset loads a dataset directory written by World.WriteDir (or
// assembled by hand from real data in the same formats). The inputs are
// independent files in independent formats, so they are parsed
// concurrently — five WHOIS dialects (themselves fanned out per registry
// inside whois.LoadDir), the two MRT RIBs, the relationship/organisation
// datasets, the abuse feeds, the RPKI archive, and the evaluation files —
// and the loaded dataset is identical to a serial load. The merged
// routing table is frozen before return, so the first Infer pays no
// indexing cost.
//
// LoadDataset is strict: the first malformed record aborts the load with
// the parser's original error. For skip-and-account ingestion of messy
// inputs, with per-source diagnostics, see LoadDatasetReport.
func LoadDataset(dir string) (*Dataset, error) {
	ds, _, err := loadDataset(context.Background(), dir, StrictLoad(), allSources)
	return ds, err
}

// LoadDatasetContext is LoadDataset under a context. When the context
// carries a telemetry trace, the per-source load stages are recorded as
// spans (see LoadDatasetReportContext).
func LoadDatasetContext(ctx context.Context, dir string) (*Dataset, error) {
	ds, _, err := loadDataset(ctx, dir, StrictLoad(), allSources)
	return ds, err
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// relaxGCForLoad raises the collector's heap-growth target while a bulk
// dataset load is in flight and returns a function restoring the previous
// setting. Loading allocates tens of megabytes of long-lived structures in
// a burst; under the default target the collector repeatedly re-marks the
// half-built dataset mid-load. Nested and concurrent loads share one
// raise/restore pair, and an explicit GOGC at or above the load target
// (or "off") is left untouched.
func relaxGCForLoad() func() {
	const loadGCPercent = 300
	gcLoadMu.Lock()
	gcLoadDepth++
	if gcLoadDepth == 1 {
		prev := debug.SetGCPercent(loadGCPercent)
		if prev < 0 || prev >= loadGCPercent {
			debug.SetGCPercent(prev)
		} else {
			gcLoadRestore = prev
		}
	}
	gcLoadMu.Unlock()
	return func() {
		gcLoadMu.Lock()
		gcLoadDepth--
		if gcLoadDepth == 0 && gcLoadRestore >= 0 {
			debug.SetGCPercent(gcLoadRestore)
			gcLoadRestore = -1
		}
		gcLoadMu.Unlock()
	}
}

var (
	gcLoadMu      sync.Mutex
	gcLoadDepth   int
	gcLoadRestore = -1
)

// AnalyzeGeo measures geolocation-database disagreement over leased
// versus non-leased announced prefixes (§8 extension). Returns nil when
// the dataset has no geolocation panel.
func (d *Dataset) AnalyzeGeo(res *Result) *GeoReport {
	if d.Geo == nil {
		return nil
	}
	leasedSet := make(map[Prefix]bool)
	var leased []Prefix
	for _, inf := range res.LeasedInferences() {
		leased = append(leased, inf.Prefix)
		leasedSet[inf.Prefix] = true
	}
	var nonLeased []Prefix
	d.Table.Walk(func(p Prefix, origins []uint32) bool {
		if !leasedSet[p] {
			nonLeased = append(nonLeased, p)
		}
		return true
	})
	return d.Geo.Analyze(leased, nonLeased)
}

// Pipeline builds a core pipeline over the dataset.
func (d *Dataset) Pipeline(opts Options) *core.Pipeline {
	return &core.Pipeline{Whois: d.Whois, Table: d.Table, Rel: d.Rel, Orgs: d.Orgs, Opts: opts, Trees: d.trees}
}

// Infer runs the paper's methodology (§5.1–§5.2).
func (d *Dataset) Infer(opts Options) *Result {
	return d.Pipeline(opts).Infer()
}

// InferContext is Infer under a context: when the context carries a
// telemetry trace, each registry's classification is recorded as an
// "infer.<RIR>" span.
func (d *Dataset) InferContext(ctx context.Context, opts Options) *Result {
	return d.Pipeline(opts).InferContext(ctx)
}

// Curate builds the evaluation reference dataset (§5.3).
func (d *Dataset) Curate() *Reference {
	return eval.Curate(eval.Inputs{
		Whois:      d.Whois,
		Table:      d.Table,
		Brokers:    d.Brokers,
		Exclusions: d.Exclusions,
		ISPs:       d.EvalISPs,
	})
}

// Evaluate scores a result against the curated reference (Table 2).
func Evaluate(ref *Reference, res *Result) *Evaluation {
	return eval.Evaluate(ref, res)
}

// AnalyzeAbuse runs the §6.4 abuse correlation. ROA membership uses the
// union of the archive window's snapshots, mirroring the paper's use of a
// multi-day archive to catch ROAs created after the lease began.
func (d *Dataset) AnalyzeAbuse(res *Result) *AbuseReport {
	var vrps *rpki.Set
	if d.RPKI != nil && len(d.RPKI.Snapshots) > 0 {
		vrps = d.RPKI.UnionSet()
	}
	return abuse.Analyze(res, d.Table, d.Drop, vrps)
}

// TopHolders ranks IP holders by leased prefixes per registry (Table 3).
func (d *Dataset) TopHolders(res *Result, n int) map[Registry][]OrgCount {
	return ecosystem.TopHolders(res, d.Whois, n)
}

// TopFacilitators ranks lease facilitators per registry (§6.3),
// resolving maintainer handles to organisation names.
func (d *Dataset) TopFacilitators(res *Result, n int) map[Registry][]OrgCount {
	return ecosystem.TopFacilitators(res, d.Whois, n)
}

// TopOriginators ranks lease originators (§6.3).
func (d *Dataset) TopOriginators(res *Result, n int) []ASNCount {
	return ecosystem.TopOriginators(res, d.Orgs, n)
}

// HijackerAnalysis computes the §6.3 serial-hijacker overlap.
func (d *Dataset) HijackerAnalysis(res *Result) HijackerOverlap {
	return ecosystem.OverlapHijackers(res, d.Table, d.Hijackers)
}

// LoadTimeline loads the dataset's Figure-3 timeline directory.
func (d *Dataset) LoadTimeline() (*TimelineSeries, error) {
	return timeline.Load(filepath.Join(d.Dir, synth.DirTimeline))
}

// LoadMarket loads the dataset's longitudinal monthly routing snapshots
// (§8 extension).
func (d *Dataset) LoadMarket() ([]MarketSnapshot, error) {
	return market.LoadDir(filepath.Join(d.Dir, synth.DirMarket))
}

// AnalyzeMarket runs the inference over every monthly snapshot and
// reports lease churn and durations.
func (d *Dataset) AnalyzeMarket(snaps []MarketSnapshot, opts Options) *MarketReport {
	return market.Analyze(market.Inputs{
		Whois: d.Whois, Rel: d.Rel, Orgs: d.Orgs, Opts: opts, Trees: d.trees,
	}, snaps)
}

// BaselineInfer runs the Prehn et al. maintainer-difference heuristic.
func (d *Dataset) BaselineInfer() []BaselineInference {
	return baseline.Infer(d.Whois, baseline.Options{})
}

// InferRelationships reconstructs an AS-relationship graph from the
// dataset's own RIB paths with the Gao degree heuristic — the §7
// sensitivity study for the methodology's dependence on BGP-derived
// relationship data. It returns the inferred graph and its relatedness
// agreement with the dataset's relationship file.
func (d *Dataset) InferRelationships() (*asrel.Graph, float64, error) {
	var paths [][]uint32
	for _, name := range []string{synth.FileRIBRouteviews, synth.FileRIBRIS} {
		path := filepath.Join(d.Dir, name)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		ps, err := bgp.ReadPathsFile(path)
		if err != nil {
			return nil, 0, err
		}
		paths = append(paths, ps...)
	}
	g := asrel.InferFromPaths(paths)
	return g, asrel.Agreement(g, d.Rel), nil
}

// InferWithRelationships runs the methodology with a substitute
// relationship graph (e.g. one from InferRelationships).
func (d *Dataset) InferWithRelationships(g *asrel.Graph, opts Options) *Result {
	p := d.Pipeline(opts)
	p.Rel = g
	return p.Infer()
}

// InferLegacy runs the legacy-address-space extension (the paper's §8
// future work): classify every registered legacy block by comparing its
// BGP origin against the registrant's and maintainer-sharing
// organisations' ASNs.
func (d *Dataset) InferLegacy(opts Options) []LegacyInference {
	p := d.Pipeline(opts)
	return legacy.Infer(legacy.Inputs{
		Whois:        d.Whois,
		Table:        d.Table,
		Related:      p.Related,
		MaxPrefixLen: opts.MaxPrefixLen,
	})
}

// SummarizeLegacy tallies legacy verdicts.
func SummarizeLegacy(infs []LegacyInference) LegacySummary { return legacy.Summarize(infs) }

// EvaluateAugmented scores a result together with extension verdicts:
// prefixes in extraLeased count as inferred leased (e.g. legacy leases
// the core pipeline cannot see).
func EvaluateAugmented(ref *Reference, res *Result, extraLeased []Prefix) *Evaluation {
	return eval.EvaluateAugmented(ref, res, extraLeased)
}

// WriteReport writes the reproduction report as Markdown: the report
// sections named by ids (see report.IDs; cmd/experiments -exp names),
// or the full report when ids is empty. It runs only the analyses those
// sections need. A section whose analysis the load summary's
// SkippedAnalyses names is left out; any other failure is returned.
func (d *Dataset) WriteReport(w io.Writer, res *Result, ids ...string) error {
	data := &report.Data{Result: res}
	if d.Load != nil {
		data.SkippedAnalyses = d.Load.SkippedAnalyses
	}
	skipped := func(analysis string) bool { return slices.Contains(data.SkippedAnalyses, analysis) }
	evaluate := func() {
		if data.Evaluation == nil {
			data.Reference = d.Curate()
			data.Evaluation = Evaluate(data.Reference, res)
		}
	}
	sections := ids
	if len(sections) == 0 {
		sections = report.IDs()
	}
	for _, id := range sections {
		if skipped(sectionAnalyses[id]) {
			continue
		}
		var err error
		switch id {
		case "table2":
			evaluate()
		case "table3":
			data.TopHolders = d.TopHolders(res, 3)
		case "fig3":
			data.Timeline, err = d.LoadTimeline()
		case "hijackers":
			ov := d.HijackerAnalysis(res)
			data.Hijackers = &ov
			data.TopOriginators = d.TopOriginators(res, 5)
			data.TopFacilitators = d.TopFacilitators(res, 3)
		case "abuse":
			data.Abuse = d.AnalyzeAbuse(res)
		case "baseline":
			cmp := CompareBaseline(d.BaselineInfer(), res)
			data.Baseline = &cmp
		case "legacy":
			infs := d.InferLegacy(Options{})
			sum := SummarizeLegacy(infs)
			data.Legacy = &sum
			if !skipped("evaluation") {
				evaluate()
				var extra []Prefix
				for _, inf := range infs {
					if inf.Verdict == LegacyLeased {
						extra = append(extra, inf.Prefix)
					}
				}
				data.LegacyEvaluation = EvaluateAugmented(data.Reference, res, extra)
			}
		case "geo":
			data.Geo = d.AnalyzeGeo(res)
		case "market":
			var snaps []MarketSnapshot
			if snaps, err = d.LoadMarket(); err == nil {
				data.Market = d.AnalyzeMarket(snaps, Options{})
			}
		case "relinfer":
			var g *asrel.Graph
			var agreement float64
			if g, agreement, err = d.InferRelationships(); err == nil {
				data.Relationships = &report.Relationships{
					FileEdges: d.Rel.NumEdges(), InferredEdges: g.NumEdges(),
					Agreement: agreement, Result: d.InferWithRelationships(g, Options{}),
				}
			}
		case "ablations":
			for _, a := range ablations {
				data.Ablations = append(data.Ablations, report.Ablation{Name: a.name, Result: d.Infer(a.opts)})
			}
		}
		if err != nil {
			return fmt.Errorf("report section %s: %w", id, err)
		}
	}
	return report.Markdown(w, data, ids...)
}

// sectionAnalyses names the analysis (as LoadSummary.SkippedAnalyses
// spells it) that a report section cannot do without.
var sectionAnalyses = map[string]string{
	"table2": "evaluation",
	"fig3":   "timeline",
	"abuse":  "abuse-correlation",
	"geo":    "geolocation",
	"market": "market-dynamics",
}

// ablations are the design choices the report's ablation section
// removes, one inference each.
var ablations = []struct {
	name string
	opts Options
}{
	{"exact-only root lookup", Options{RootLookupExactOnly: true}},
	{"no as2org sibling expansion", Options{DisableSiblingExpansion: true}},
	{"maxlen 32 (keep hyper-specifics)", Options{MaxPrefixLen: 32}},
	{"min visibility 2", Options{MinVisibility: 2}},
}

// CompareBaseline contrasts the heuristic with the routing-aware result.
func CompareBaseline(base []BaselineInference, res *Result) BaselineComparison {
	return baseline.Compare(base, res)
}

// WriteInferencesCSV exports inferences in the stable CSV format.
func WriteInferencesCSV(path string, infs []Inference) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := core.WriteCSV(f, infs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// SortInferences orders inferences deterministically.
func SortInferences(infs []Inference) { core.SortInferences(infs) }
