// Incremental delta inference: the O(churn) reload path. A fresh load
// of a successor dataset epoch is diffed against the previous
// generation per source, the changed keys are mapped to dirty
// allocation-forest roots, and only those are re-classified — the rest
// of the previous Result is structurally shared. The output is
// byte-identical to a full Infer over the new dataset; the win is that
// monthly registry and RIB refreshes churn a few percent of the world,
// so re-inference cost tracks the churn instead of the dataset size.
package ipleasing

import (
	"context"
	"strconv"

	"ipleasing/internal/core"
	"ipleasing/internal/delta"
	"ipleasing/internal/telemetry"
)

// DeltaChurnFallback is the default dirty-segment ratio above which
// InferDelta abandons the incremental path and runs a full inference:
// past roughly a third of the forest, patching costs more than it
// saves (clean-segment copies, plan bookkeeping, index patching) and a
// full rebuild also compacts the serving indexes.
const DeltaChurnFallback = 0.35

// Generation bundles one dataset load with the inference it produced:
// the unit of state an incremental reload diffs against. Callers keep
// the Generation returned by one reload and hand it to the next.
type Generation struct {
	Dataset *Dataset
	Summary *LoadSummary
	Result  *Result
	// Opts is the inference options the Result was produced under; a
	// delta against this generation must use the same options or it
	// falls back to a full inference.
	Opts Options
}

// DeltaReport describes how an incremental inference ran.
type DeltaReport struct {
	// Mode is "delta" when the incremental path applied, "full" when it
	// fell back (first generation, options mismatch, churn above
	// threshold).
	Mode string
	// Changes is the per-source diff between the two generations.
	// Always set when a previous generation was available.
	Changes *delta.Changes
	// Stats is the dirty-segment accounting of the delta pass; set even
	// when the churn threshold forced a fallback, nil when the delta
	// path never started.
	Stats *core.DeltaStats
	// Plan maps the previous generation's flat inference order onto the
	// new one, for patching serving indexes (serve.PatchSnapshot). Nil
	// in full mode.
	Plan *core.PatchPlan
}

// InferDelta runs inference over a freshly loaded dataset by re-using
// the previous generation's result wherever the inputs did not change.
// It diffs next against prev's dataset (whois objects, BGP origin
// sets, relationship/organisation rows, ROAs), maps the changed keys
// to dirty allocation-forest roots, re-classifies only those, and
// splices them into a structurally-shared copy of prev.Result.
//
// The returned Generation's Result is byte-identical to
// next.Infer(opts) — same CSV, same Table 1, same lookup answers — at
// any GOMAXPROCS. When the incremental path cannot apply (nil prev,
// differing options, dirty ratio above maxDirtyRatio) it transparently
// falls back to a full inference; the report says which path ran.
//
// maxDirtyRatio <= 0 disables the churn threshold; pass
// DeltaChurnFallback for the default.
func InferDelta(ctx context.Context, next *Dataset, summary *LoadSummary, opts Options, prev *Generation, maxDirtyRatio float64) (*Generation, *DeltaReport) {
	gen := &Generation{Dataset: next, Summary: summary, Opts: opts}
	rep := &DeltaReport{Mode: "full"}
	if prev == nil || prev.Dataset == nil || prev.Result == nil || prev.Opts != opts {
		gen.Result = next.InferContext(ctx, opts)
		return gen, rep
	}

	dctx, dspan := telemetry.StartSpan(ctx, "delta.diff")
	ch := delta.Diff(inputsOf(prev.Dataset), inputsOf(next))
	dspan.SetAttr("changed_keys", strconv.Itoa(ch.TotalChangedKeys()))
	dspan.End()
	rep.Changes = ch

	actx, aspan := telemetry.StartSpan(dctx, "delta.apply")
	res, plan, stats, ok := next.Pipeline(opts).ApplyDelta(
		actx, prev.Dataset.Pipeline(prev.Opts), prev.Result, ch, maxDirtyRatio)
	rep.Stats = stats
	aspan.SetAttr("applied", strconv.FormatBool(ok))
	if stats != nil {
		aspan.SetAttr("dirty_segments", strconv.Itoa(stats.DirtySegments))
	}
	aspan.End()
	if !ok {
		gen.Result = next.InferContext(ctx, opts)
		return gen, rep
	}
	gen.Result = res
	rep.Mode = "delta"
	rep.Plan = plan
	return gen, rep
}

// inputsOf projects the substrates the inference reads out of a
// dataset for diffing.
func inputsOf(d *Dataset) delta.Inputs {
	return delta.Inputs{Whois: d.Whois, Table: d.Table, Rel: d.Rel, Orgs: d.Orgs, RPKI: d.RPKI}
}
