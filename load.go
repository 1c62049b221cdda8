// Dataset loading: the strict fail-fast entry point the package has
// always had, plus the lenient skip-and-account variant with per-source
// load reports and graceful degradation over missing optional sources.
package ipleasing

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/bgp"
	"ipleasing/internal/brokers"
	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/geoip"
	"ipleasing/internal/hijack"
	"ipleasing/internal/par"
	"ipleasing/internal/rpki"
	"ipleasing/internal/spamhaus"
	"ipleasing/internal/synth"
	"ipleasing/internal/telemetry"
	"ipleasing/internal/whois"
)

// Load-diagnostics types, re-exported from the internal substrate.
type (
	// LoadOptions selects strict (fail-fast) or lenient (skip-and-account)
	// ingestion. See StrictLoad and LenientLoad.
	LoadOptions = diag.LoadOptions
	// LoadReport is one source's ingestion accounting.
	LoadReport = diag.LoadReport
	// LoadError locates one malformed record in an input source.
	LoadError = diag.LoadError
)

// StrictLoad returns the historical fail-fast load policy: the first
// malformed record aborts the load with a record-locating error.
func StrictLoad() LoadOptions { return diag.Strict() }

// LenientLoad returns the skip-and-account policy: malformed records are
// dropped and counted per source, missing optional sources degrade the
// dataset instead of failing it, and a per-source circuit breaker
// (ErrLoadErrorRate) still rejects sources that are mostly garbage.
func LenientLoad() LoadOptions { return diag.Lenient() }

// ErrLoadErrorRate is wrapped by lenient-load errors when a single
// source's malformed-record rate exceeds LoadOptions.MaxErrorRate.
var ErrLoadErrorRate = diag.ErrErrorRate

// Report names of the sources after the RIBs, in report order (see
// auxSources).
const (
	sourceASRel      = "asrel"
	sourceAS2Org     = "as2org"
	sourceHijackers  = "hijackers"
	sourceBrokers    = "brokers"
	sourceDrop       = "drop"
	sourceRPKI       = "rpki"
	sourceTruth      = "truth"
	sourceExclusions = "exclusions"
	sourceEvalISPs   = "eval-isps"
	sourceGeo        = "geo"
)

// LoadSummary aggregates a dataset load: one LoadReport per source in a
// fixed order, plus the analyses that a degraded dataset can no longer
// support.
type LoadSummary struct {
	// Strict records which policy produced the summary.
	Strict bool
	// Reports holds one report per loaded source, in a fixed order:
	// whois/<RIR> for the five registries, bgp/<file> for the two RIBs,
	// then asrel, as2org, hijackers, brokers, drop, rpki, truth,
	// exclusions, eval-isps, geo. LoadDataset and LoadDatasetReport load
	// all seventeen; the LoadAndInfer entry points load only the nine the
	// inference reads (whois, bgp, asrel, as2org) and report those.
	Reports []*LoadReport
	// SkippedAnalyses names the analyses the dataset cannot run because
	// their sources are missing (e.g. "abuse-correlation" without an
	// ASN-DROP archive). Empty for a complete dataset. A source the load
	// did not parse counts as missing when its file or directory is
	// absent, so every entry point reports the same list whenever a full
	// load of the directory succeeds.
	SkippedAnalyses []string
}

// Report returns the report for a logical source name ("whois/RIPE",
// "rpki", ...), or nil if the summary has none.
func (s *LoadSummary) Report(source string) *LoadReport {
	if s == nil {
		return nil
	}
	for _, r := range s.Reports {
		if r != nil && r.Source == source {
			return r
		}
	}
	return nil
}

// Clean reports whether every source loaded completely: nothing missing,
// nothing skipped, nothing truncated.
func (s *LoadSummary) Clean() bool {
	if s == nil {
		return true
	}
	for _, r := range s.Reports {
		if r != nil && !r.Clean() {
			return false
		}
	}
	return true
}

// String renders a one-line summary of the load.
func (s *LoadSummary) String() string {
	mode := "lenient"
	if s.Strict {
		mode = "strict"
	}
	var missing, skipped, truncated int
	for _, r := range s.Reports {
		if r == nil {
			continue
		}
		if r.Missing {
			missing++
		}
		if r.Truncated {
			truncated++
		}
		skipped += r.Skipped
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s load: %d sources", mode, len(s.Reports))
	if missing > 0 {
		fmt.Fprintf(&b, ", %d missing", missing)
	}
	if truncated > 0 {
		fmt.Fprintf(&b, ", %d truncated", truncated)
	}
	if skipped > 0 {
		fmt.Fprintf(&b, ", %d records skipped", skipped)
	}
	if missing == 0 && truncated == 0 && skipped == 0 {
		b.WriteString(", clean")
	}
	return b.String()
}

// LoadDatasetReport loads a dataset directory under an explicit ingestion
// policy and returns the per-source accounting alongside the dataset.
//
// With StrictLoad options it behaves exactly like LoadDataset. With
// LenientLoad options, malformed records are skipped and counted instead
// of aborting, a truncated MRT RIB keeps its partial table, and the
// optional sources — RPKI archive, geolocation panel, ASN-DROP archive,
// hijacker list, broker list, and the evaluation files — may be absent
// entirely: the corresponding reports are marked Missing and the analyses
// they feed are listed in the summary's SkippedAnalyses. The required
// core of the methodology (WHOIS registry dumps, AS relationships, AS-to-
// organisation mapping) must load in either mode.
//
// On error the partial summary is still returned so callers can see how
// far the load got and which source failed.
func LoadDatasetReport(dir string, opts LoadOptions) (*Dataset, *LoadSummary, error) {
	return loadDataset(context.Background(), dir, opts, allSources)
}

// LoadDatasetReportContext is LoadDatasetReport under a context. When
// the context carries a telemetry trace (telemetry.NewTrace +
// Trace.Context), every source's parse runs inside a "load.<source>"
// span annotated with the records and bytes it consumed — the per-stage
// timing breakdown leaseinfer -trace dumps.
func LoadDatasetReportContext(ctx context.Context, dir string, opts LoadOptions) (*Dataset, *LoadSummary, error) {
	return loadDataset(ctx, dir, opts, allSources)
}

// LoadAndInfer loads a dataset directory under the given ingestion
// policy and runs the inference once: the snapshot-build step of a
// long-running lookup service's reload cycle (see internal/serve and
// cmd/leased). The returned triple is immutable from the caller's point
// of view — a daemon can atomically swap it in as the serving snapshot
// while the previous one keeps answering queries. On load failure the
// partial summary is still returned so the failure can be surfaced in
// health endpoints.
//
// The load is scoped to what the inference reads: the WHOIS dumps, the
// RIBs, and the relationship and organisation datasets. The RPKI
// archive, the geolocation panel, the abuse and broker lists and the
// evaluation files are not parsed, so a malformed row in one of them
// cannot fail a reload, and the returned Dataset's RPKI, Geo, Drop,
// Hijackers, Brokers, Truth, Exclusions and EvalISPs are nil. Curate,
// AnalyzeGeo, AnalyzeAbuse, HijackerAnalysis and WriteReport need a
// dataset from LoadDataset or LoadDatasetReport. SkippedAnalyses still
// judges every unparsed optional source by whether its file or
// directory exists, so it matches a full load's.
func LoadAndInfer(dir string, opts LoadOptions, inferOpts Options) (*Dataset, *LoadSummary, *Result, error) {
	return LoadAndInferContext(context.Background(), dir, opts, inferOpts)
}

// LoadAndInferContext is LoadAndInfer under a context, tracing the load
// and inference stages when the context carries a telemetry trace. Its
// load is scoped like LoadAndInfer's.
func LoadAndInferContext(ctx context.Context, dir string, opts LoadOptions, inferOpts Options) (*Dataset, *LoadSummary, *Result, error) {
	ds, sum, err := loadDataset(ctx, dir, opts, servingSources)
	if err != nil {
		return nil, sum, nil, err
	}
	return ds, sum, ds.InferContext(ctx, inferOpts), nil
}

// sourceSet selects the sources one load parses beyond the inference
// core (the five WHOIS dumps and the two RIBs, which every load reads).
// The entry point picks it: the analysis loaders parse everything, the
// serving loaders only what the inference reads.
type sourceSet uint16

const (
	srcASRel sourceSet = 1 << iota
	srcAS2Org
	srcHijackers
	srcBrokers
	srcDrop
	srcRPKI
	srcTruth
	srcExclusions
	srcEvalISPs
	srcGeo

	// allSources is what LoadDataset and LoadDatasetReport parse.
	allSources = srcGeo<<1 - 1
	// servingSources is what Dataset.Pipeline reads: relationships and
	// organisations feed the classification.
	servingSources = srcASRel | srcAS2Org
)

// auxSource is one source beyond the WHOIS dumps and RIBs: its report
// name, its file or directory in the dataset, and the parse that fills
// its Dataset field through a collector.
type auxSource struct {
	bit  sourceSet
	name string
	path string // relative to the dataset directory
	dir  bool   // path names a directory rather than a file
	load func(ds *Dataset, path string, c *diag.Collector) error
}

// present reports whether the source's file or directory exists — the
// verdict a load of it would reach on whether it is missing.
func (a auxSource) present(dir string) bool {
	path := filepath.Join(dir, a.path)
	if a.dir {
		return dirExists(path)
	}
	_, err := os.Stat(path)
	return err == nil
}

// auxSources lists the sources after the RIBs in report order.
var auxSources = []auxSource{
	{srcASRel, sourceASRel, synth.FileASRel, false, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		// AS relationships and the org mapping are the inference's core
		// relatedness signal: required in both policies.
		ds.Rel, err = loadFileWith(path, c, false, asrel.ParseWith)
		return err
	}},
	{srcAS2Org, sourceAS2Org, synth.FileAS2Org, false, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.Orgs, err = loadFileWith(path, c, false, as2org.ParseWith)
		return err
	}},
	{srcHijackers, sourceHijackers, synth.FileHijackers, false, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.Hijackers, err = loadFileWith(path, c, true, hijack.ParseWith)
		return err
	}},
	{srcBrokers, sourceBrokers, synth.FileBrokers, false, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.Brokers, err = loadFileWith(path, c, true, brokers.ParseWith)
		return err
	}},
	{srcDrop, sourceDrop, synth.DirASNDrop, true, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.Drop, err = spamhaus.LoadDirWith(path, c)
		return err
	}},
	{srcRPKI, sourceRPKI, synth.DirRPKI, true, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.RPKI, err = rpki.LoadDirWith(path, c)
		return err
	}},
	{srcTruth, sourceTruth, synth.FileGroundTruth, false, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.Truth, err = loadEvalFile(path, c, synth.ReadTruth)
		c.AddParsed(len(ds.Truth))
		return err
	}},
	{srcExclusions, sourceExclusions, synth.FileEvalExclusions, false, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		ds.Exclusions, err = loadEvalFile(path, c, synth.ReadPrefixList)
		c.AddParsed(len(ds.Exclusions))
		return err
	}},
	{srcEvalISPs, sourceEvalISPs, synth.FileEvalISPs, false, func(ds *Dataset, path string, c *diag.Collector) error {
		isps, err := loadEvalFile(path, c, synth.ReadEvalISPs)
		if err != nil {
			return err
		}
		for _, isp := range isps {
			ds.EvalISPs = append(ds.EvalISPs, ISPRef{Registry: isp.Registry, Name: isp.Name})
		}
		c.AddParsed(len(isps))
		return nil
	}},
	{srcGeo, sourceGeo, synth.DirGeo, true, func(ds *Dataset, path string, c *diag.Collector) (err error) {
		if !dirExists(path) {
			// A dataset without a geo directory has always been valid;
			// Geo stays nil and AnalyzeGeo returns nil.
			c.SetFile(path)
			c.MarkMissing()
			return nil
		}
		ds.Geo, err = geoip.LoadDirWith(path, c)
		return err
	}},
}

// loadDataset is the single loader behind every entry point: the
// analysis loaders pass allSources, the serving loaders servingSources.
// Structure mirrors the historical loader: every independent source
// parses concurrently, then the RIB tables merge in fixed order. Each
// source runs inside a "load.<source>" span when ctx carries a
// telemetry trace; spans of an untraced context are nil and free.
// Sources outside set are neither parsed nor reported, and their
// Dataset fields stay nil.
func loadDataset(ctx context.Context, dir string, opts LoadOptions, set sourceSet) (*Dataset, *LoadSummary, error) {
	defer relaxGCForLoad()()
	ds := &Dataset{Dir: dir}

	ribNames := []string{synth.FileRIBRouteviews, synth.FileRIBRIS}
	ribs := make([]*bgp.Table, len(ribNames))
	ribCols := make([]*diag.Collector, len(ribNames))
	for i, name := range ribNames {
		ribCols[i] = diag.NewCollector("bgp/"+name, opts)
	}

	// traced wraps one source's load in a "load.<source>" span; the
	// span's records/bytes come from the collectors once the load ends.
	traced := func(name string, cols []*diag.Collector, fn func(context.Context) error) func() error {
		return func() error {
			sctx, sp := telemetry.StartSpan(ctx, "load."+name)
			defer func() { finishLoadSpan(sp, cols) }()
			return fn(sctx)
		}
	}

	var whoisReports []*diag.LoadReport
	var g par.Group
	g.Go(func() error {
		sctx, sp := telemetry.StartSpan(ctx, "load.whois")
		defer func() {
			for _, rep := range whoisReports {
				if rep != nil {
					sp.AddRecords(int64(rep.Parsed))
					sp.AddBytes(rep.Bytes)
				}
			}
			sp.End()
		}()
		var err error
		ds.Whois, whoisReports, err = whois.LoadDirContext(sctx, dir, opts)
		return err
	})
	for i, name := range ribNames {
		i, name := i, name
		g.Go(traced("bgp/"+name, ribCols[i:i+1], func(context.Context) error {
			path := filepath.Join(dir, name)
			if _, serr := os.Stat(path); serr != nil {
				// RIBs have always been optional vantage points; record
				// the absence instead of skipping it silently.
				ribCols[i].SetFile(path)
				ribCols[i].MarkMissing()
				return nil
			}
			tbl := &bgp.Table{}
			if err := tbl.LoadMRTFileWith(path, ribCols[i]); err != nil {
				return err
			}
			ribs[i] = tbl
			return nil
		}))
	}
	auxCols := make([]*diag.Collector, len(auxSources))
	for i, src := range auxSources {
		if set&src.bit == 0 {
			continue
		}
		c := diag.NewCollector(src.name, opts)
		auxCols[i] = c
		load, path := src.load, filepath.Join(dir, src.path)
		g.Go(traced(src.name, []*diag.Collector{c}, func(context.Context) error {
			return load(ds, path, c)
		}))
	}
	err := g.Wait()

	sum := &LoadSummary{Strict: opts.Strict}
	sum.Reports = append(sum.Reports, whoisReports...)
	for _, c := range ribCols {
		sum.Reports = append(sum.Reports, c.Report())
	}
	for _, c := range auxCols {
		if c != nil {
			sum.Reports = append(sum.Reports, c.Report())
		}
	}
	if err != nil {
		return nil, sum, err
	}

	// Merge the collector tables in fixed order (vantage-point counts are
	// summed per prefix and origin, so the merged view matches a serial
	// load of the same files), then index for allocation-free queries.
	_, mergeSpan := telemetry.StartSpan(ctx, "load.merge")
	ds.Table = &bgp.Table{}
	for _, tbl := range ribs {
		if tbl == nil {
			continue
		}
		if ds.Table.NumPrefixes() == 0 {
			ds.Table = tbl // adopt the first collector's table wholesale
		} else {
			ds.Table.Merge(tbl)
		}
	}
	ds.Table.Freeze()
	mergeSpan.AddRecords(int64(ds.Table.NumPrefixes()))
	mergeSpan.End()
	ds.trees = core.NewTreeCache()

	// A loaded source is missing when its report says so; an unloaded
	// one when its file or directory is absent — the verdict its load
	// would have reached, so both source sets skip the same analyses.
	missing := make(map[string]bool, len(auxSources))
	for i, src := range auxSources {
		if c := auxCols[i]; c != nil {
			missing[src.name] = c.Report().Missing
		} else {
			missing[src.name] = !src.present(dir)
		}
	}
	sum.SkippedAnalyses = skippedAnalyses(missing, dir)
	ds.Load = sum
	return ds, sum, nil
}

// finishLoadSpan stamps a load span with its collectors' record and byte
// counts and ends it. Nil spans (untraced loads) are free.
func finishLoadSpan(sp *telemetry.Span, cols []*diag.Collector) {
	if sp == nil {
		return
	}
	for _, c := range cols {
		if rep := c.Report(); rep != nil {
			sp.AddRecords(int64(rep.Parsed))
			sp.AddBytes(rep.Bytes)
		}
	}
	sp.End()
}

// skippedAnalyses maps missing sources to the downstream analyses they
// feed — the degradation matrix a lenient load reports instead of failing.
func skippedAnalyses(missing map[string]bool, dir string) []string {
	var out []string
	if missing[sourceDrop] {
		out = append(out, "abuse-correlation") // §6.4 needs the ASN-DROP archive
	}
	if missing[sourceRPKI] {
		out = append(out, "roa-validation") // §6.4 ROA column needs VRPs
	}
	if missing[sourceHijackers] {
		out = append(out, "hijacker-overlap") // §6.3 needs the hijacker list
	}
	if missing[sourceBrokers] || missing[sourceTruth] ||
		missing[sourceExclusions] || missing[sourceEvalISPs] {
		out = append(out, "evaluation") // §5.3 reference needs brokers + eval files
	}
	if missing[sourceGeo] {
		out = append(out, "geolocation") // §8 extension needs the provider panel
	}
	if !dirExists(filepath.Join(dir, synth.DirTimeline)) {
		out = append(out, "timeline") // Figure 3 needs the snapshot directory
	}
	if !dirExists(filepath.Join(dir, synth.DirMarket)) {
		out = append(out, "market-dynamics") // §8 extension needs monthly RIBs
	}
	return out
}

// loadFileWith opens and parses one dataset file through a collector. A
// missing optional file in lenient mode degrades to the zero value with
// the report marked Missing; in strict mode (or for required files) the
// open error propagates as before.
func loadFileWith[T any](path string, c *diag.Collector, optional bool,
	parse func(io.Reader, *diag.Collector) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		if optional && !c.Strict() && os.IsNotExist(err) {
			c.SetFile(path)
			c.MarkMissing()
			return zero, nil
		}
		return zero, err
	}
	defer f.Close()
	c.SetFile(path)
	v, err := parse(f, c)
	if err != nil {
		return zero, fmt.Errorf("ipleasing: %s: %w", filepath.Base(path), err)
	}
	return v, nil
}

// loadEvalFile loads one of the all-or-nothing evaluation files (ground
// truth, exclusions, eval ISPs). These parsers are not record-skipping, so
// in lenient mode a malformed file counts as a single skipped record and
// the source drops out; a missing file is marked Missing. Strict mode
// keeps the historical errors.
func loadEvalFile[T any](path string, c *diag.Collector,
	parse func(io.Reader) ([]T, error)) ([]T, error) {
	lenient := !c.Strict()
	f, err := os.Open(path)
	if err != nil {
		if lenient && os.IsNotExist(err) {
			c.SetFile(path)
			c.MarkMissing()
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	c.SetFile(path)
	v, err := parse(f)
	if err != nil {
		err = fmt.Errorf("ipleasing: %s: %w", filepath.Base(path), err)
		if lenient {
			if serr := c.Skip(0, -1, err); serr != nil {
				return nil, serr
			}
			return nil, nil
		}
		return nil, err
	}
	return v, nil
}
