package serve

import (
	"bytes"

	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/report"
)

// Reload modes. ModeFull and ModeSnapshot are what ReloadEvent.Mode and
// the mode label of the reload metrics report; ModeDelta and ModeFull
// are what DeltaInfo.Mode reports for the incremental library path,
// which the daemon does not take.
const (
	ModeFull  = "full"
	ModeDelta = "delta"
	// ModeSnapshot marks a reload served from a decoded on-disk or
	// fetched binary snapshot (internal/snapstore): no dataset was
	// parsed and nothing was re-inferred.
	ModeSnapshot = "snapshot"
)

// DeltaInfo describes how a snapshot was produced by the incremental
// reload path. Attached to Snapshot.Delta; a nil Delta means a full
// build.
type DeltaInfo struct {
	// Mode is ModeDelta when the inference delta was applied, ModeFull
	// when the delta path fell back to a full rebuild (high churn,
	// options change, first load).
	Mode string
	// DirtyShards and TotalShards count allocation-forest root segments
	// re-classified vs total (core.DeltaStats).
	DirtyShards int
	TotalShards int
	// ChangedKeys is the per-source changed-key count from the dataset
	// diff (delta.Changes.ChangedKeys).
	ChangedKeys map[string]int
	// PatchOps is the number of LPM index operations the patch
	// performed: value deletions plus dirty-prefix inserts/updates.
	PatchOps int
	// LPMRebuilt records that the flat LPM index was rebuilt from
	// scratch instead of patched (duplicate prefixes, or an inconsistent
	// plan).
	LPMRebuilt bool
}

// PatchSnapshot indexes an incrementally-updated inference result by
// patching the previous snapshot's serving indexes through the
// PatchPlan instead of rebuilding them: surviving LPM values are
// remapped in place, deleted ones dropped, and only the re-classified
// flat slots are re-inserted. The records and the ASN index are
// re-encoded from the new arena. The result must be the one ApplyDelta produced from
// prev.Result with plan.
//
// The returned snapshot answers every query byte-identically to
// NewSnapshot(res, ...); Delta carries the patch statistics (Mode,
// PatchOps, LPMRebuilt) for the caller to augment. Falls back to a full
// index build — never fails — when the plan is inconsistent with the
// result or the LPM refuses to patch.
func PatchSnapshot(prev *Snapshot, res *core.Result, plan *core.PatchPlan, reports []*diag.LoadReport, skippedAnalyses []string) *Snapshot {
	if prev == nil || plan == nil {
		s := NewSnapshot(res, reports, skippedAnalyses)
		s.Delta = &DeltaInfo{Mode: ModeDelta, LPMRebuilt: true}
		return s
	}
	s := &Snapshot{
		Result:          res,
		Reports:         reports,
		SkippedAnalyses: skippedAnalyses,
		Inferred:        true,
		Delta:           &DeltaInfo{Mode: ModeDelta},
		totalBGP:        res.TotalBGPPrefixes,
		routedSpace:     res.RoutedSpace,
	}
	infs := res.Flat()
	if len(infs) != plan.NextLen || prev.NumInferences() != plan.PrevLen {
		s := NewSnapshot(res, reports, skippedAnalyses)
		s.Delta = &DeltaInfo{Mode: ModeDelta, LPMRebuilt: true}
		return s
	}
	ps := prefixesOf(infs)
	deleted := 0
	for _, v := range plan.Remap {
		if v < 0 {
			deleted++
		}
	}
	s.Delta.PatchOps = deleted + len(plan.DirtyNext)
	s.lpm = prev.lpm.Patch(plan.Remap, ps, plan.DirtyNext)
	if s.lpm == nil {
		s.lpm = netutil.BuildLPM(ps)
		s.Delta.LPMRebuilt = true
	}

	// The records and the ASN index are rebuilt from the spliced arena
	// by the same encoders NewSnapshot uses, so they match a full build
	// by construction.
	s.recs = encodeRecords(infs)
	s.byASN = buildASNView(infs)

	// Table 1 aggregates every region's counts; re-render it from the
	// spliced result (cheap relative to classification).
	var buf bytes.Buffer
	report.Table1(&buf, res)
	s.table1 = buf.Bytes()
	return s
}
