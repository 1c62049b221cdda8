package core

import (
	"context"
	"sort"
	"strconv"

	"ipleasing/internal/delta"
	"ipleasing/internal/netutil"
	"ipleasing/internal/par"
	"ipleasing/internal/telemetry"
	"ipleasing/internal/whois"
)

// DeltaStats summarises one incremental-inference pass.
type DeltaStats struct {
	// TotalSegments and DirtySegments count allocation-forest root
	// segments across all registries; their ratio is the churn the delta
	// planner saw (and what the fallback threshold gates on).
	TotalSegments int
	DirtySegments int
	// ReusedSegments were copied (or aliased) from the previous result
	// without re-classification.
	ReusedSegments int
	// AliasedRegions had zero dirty segments and share the previous
	// RegionResult pointer outright.
	AliasedRegions int
	// RebuiltTrees counts registries whose allocation tree was rebuilt
	// because their WHOIS InetNum set changed.
	RebuiltTrees int
}

// DirtyRatio returns DirtySegments/TotalSegments (0 for an empty world).
func (s *DeltaStats) DirtyRatio() float64 {
	if s.TotalSegments == 0 {
		return 0
	}
	return float64(s.DirtySegments) / float64(s.TotalSegments)
}

// PatchPlan maps the previous generation's flat inference order (the
// Result.All order: registry, then walk order) onto the next one's, so
// serving indexes built over the flat slice can be patched instead of
// rebuilt.
type PatchPlan struct {
	// Remap[i] is the next-generation flat index of the previous
	// generation's i-th inference, or -1 if that slot was re-classified
	// or removed. Remap is monotonically increasing over its non-negative
	// entries, so remapped index lists keep their relative order.
	Remap []int32
	// DirtyNext lists, in ascending order, the next-generation flat
	// indices whose inferences were (re)computed — the entries an index
	// patch must insert or update.
	DirtyNext []int32
	// PrevLen and NextLen are the flat inference counts of the two
	// generations.
	PrevLen, NextLen int
}

// regionPlan is the per-registry dirtiness decision.
type regionPlan struct {
	reg    whois.Registry
	db     *whois.Database
	prevRR *RegionResult
	ct     *cachedTree
	prevCT *cachedTree
	// prevSeg[si] is the prev segment matching next segment si (same
	// root prefix), -1 if the root is new. dirty[si] marks segments that
	// must be re-classified.
	prevSeg []int32
	dirty   []bool
	ndirty  int
	alias   bool // share the previous RegionResult pointer
	full    bool // no usable previous state: run inferRegion from scratch
}

// ApplyDelta re-infers only the allocation-forest roots made dirty by ch,
// splicing the fresh classifications into a structurally-shared copy of
// prev: untouched regions alias the previous RegionResult, untouched
// segments are copied with their inner slices aliased, and only dirty
// segments run classifySegment on the worker pool.
//
// p must be the pipeline over the NEW substrates and prevP the pipeline
// that produced prev; both need a TreeCache and identical Options. The
// fourth return is false when the delta path cannot run (missing caches,
// options mismatch, or dirty-segment ratio above
// maxDirtyRatio) — the caller then falls back to a full Infer. A
// maxDirtyRatio <= 0 disables the threshold.
//
// The equivalence contract: the returned Result is byte-identical to
// what p.Infer() would produce over the same substrates, at any
// GOMAXPROCS.
func (p *Pipeline) ApplyDelta(ctx context.Context, prevP *Pipeline, prev *Result, ch *delta.Changes, maxDirtyRatio float64) (*Result, *PatchPlan, *DeltaStats, bool) {
	if p == nil || prevP == nil || prev == nil || ch == nil {
		return nil, nil, nil, false
	}
	if p.Whois == nil || prevP.Whois == nil || p.Trees == nil || prevP.Trees == nil {
		return nil, nil, nil, false
	}
	if p.Opts != prevP.Opts {
		return nil, nil, nil, false
	}
	if p.Table != nil {
		p.Table.Freeze()
	}

	bgpIdx := newRangeIndex(prefixRanges(ch.BGP))
	stats := &DeltaStats{}
	plans := make([]*regionPlan, 0, len(whois.Registries))
	for _, reg := range whois.Registries {
		db, ok := p.Whois.DBs[reg]
		if !ok {
			continue
		}
		pl := p.planRegion(prevP, prev, ch, reg, db, bgpIdx)
		plans = append(plans, pl)
		stats.TotalSegments += len(pl.ct.segs)
		if pl.full {
			stats.DirtySegments += len(pl.ct.segs)
		} else {
			stats.DirtySegments += pl.ndirty
		}
		if pl.alias {
			stats.AliasedRegions++
		}
		if rc := ch.Whois[reg]; rc != nil && len(rc.Ranges) > 0 {
			stats.RebuiltTrees++
		}
	}
	stats.ReusedSegments = stats.TotalSegments - stats.DirtySegments
	if maxDirtyRatio > 0 && stats.DirtyRatio() > maxDirtyRatio {
		return nil, nil, stats, false
	}

	res := &Result{Regions: make(map[whois.Registry]*RegionResult)}
	if p.Table != nil {
		res.TotalBGPPrefixes = p.Table.NumPrefixes()
		res.RoutedSpace = p.Table.RoutedAddressSpace()
	}
	// One contiguous arena backs every region's output, in plan (=
	// registry) order: patched regions classify straight into their
	// window, so the flat serving slice needs no second full-result copy
	// (Result.Flat) — the delta path's dominant allocation otherwise.
	offs := make([]int, len(plans))
	total := 0
	for i, pl := range plans {
		offs[i] = total
		total += pl.ct.totalOut
	}
	arena := make([]Inference, total)
	slots := make([]*RegionResult, len(plans))
	err := par.Each(len(plans), func(i int) error {
		pl := plans[i]
		_, sp := telemetry.StartSpan(ctx, "delta.infer."+pl.reg.String())
		defer sp.End()
		switch {
		case pl.full:
			rr, shards := p.inferRegion(pl.db)
			sp.SetAttr("shards", strconv.Itoa(shards))
			slots[i] = rr
		case pl.alias:
			sp.SetAttr("aliased", "true")
			slots[i] = pl.prevRR
		default:
			sp.SetAttr("dirty", strconv.Itoa(pl.ndirty))
			slots[i] = p.patchRegion(pl, arena[offs[i]:offs[i]+pl.ct.totalOut])
		}
		sp.AddRecords(int64(len(slots[i].Inferences)))
		return nil
	})
	if err != nil {
		panic(err) // recovered classification panic; see InferContext
	}
	flatOK := true
	for i, pl := range plans {
		res.Regions[pl.reg] = slots[i]
		n := pl.ct.totalOut
		if len(slots[i].Inferences) != n {
			flatOK = false // full region diverged from its tree's plan
			continue
		}
		if pl.full || pl.alias {
			copy(arena[offs[i]:offs[i]+n], slots[i].Inferences)
		}
	}
	if flatOK {
		res.flat = arena
	}
	return res, buildPatchPlan(prev, plans, slots), stats, true
}

// planRegion decides, for one registry, which next-generation segments
// can reuse the previous classification and which must be re-run.
func (p *Pipeline) planRegion(prevP *Pipeline, prev *Result, ch *delta.Changes, reg whois.Registry, db *whois.Database, bgpIdx *rangeIndex) *regionPlan {
	pl := &regionPlan{reg: reg, db: db, prevRR: prev.Regions[reg]}
	rc := ch.Whois[reg]
	prevDB := prevP.Whois.DBs[reg]
	if pl.prevRR == nil || prevDB == nil {
		pl.full = true
		pl.ct = p.allocTree(db)
		return pl
	}
	pl.prevCT = prevP.allocTree(prevDB)
	if rc == nil || len(rc.Ranges) == 0 {
		// No InetNum churn: the next tree is content-identical, so the
		// previous one (walk order, root map, shard plan and all) is
		// adopted into the next cache instead of being rebuilt.
		p.Trees.adopt(treeCacheKey{reg: reg, maxLen: p.Opts.maxLen()}, pl.prevCT)
	}
	pl.ct = p.allocTree(db)

	prevRoots := make(map[netutil.Prefix]int32, len(pl.prevCT.segs))
	for i := range pl.prevCT.segs {
		prevRoots[pl.prevCT.entries[pl.prevCT.segs[i].lo].Prefix] = int32(i)
	}
	var whoisIdx *rangeIndex
	var changedOrgs map[string]bool
	if rc != nil {
		whoisIdx = newRangeIndex(rc.Ranges)
		changedOrgs = rc.Orgs
	}
	pl.prevSeg = make([]int32, len(pl.ct.segs))
	pl.dirty = make([]bool, len(pl.ct.segs))
	for si := range pl.ct.segs {
		seg := pl.ct.segs[si]
		rootE := &pl.ct.entries[seg.lo]
		pl.prevSeg[si] = -1
		psi, ok := prevRoots[rootE.Prefix]
		if ok {
			pl.prevSeg[si] = psi
		}
		pl.dirty[si] = !ok || p.segmentDirty(pl, ch, si, int(psi), rootE.Prefix, rootE.Value.inet, whoisIdx, changedOrgs, bgpIdx)
		if pl.dirty[si] {
			pl.ndirty++
		}
	}
	// Zero dirty segments and a root-for-root match means every output
	// slot is identical: share the whole previous RegionResult.
	pl.alias = pl.ndirty == 0 &&
		len(pl.ct.segs) == len(pl.prevCT.segs) &&
		pl.ct.totalOut == pl.prevCT.totalOut
	return pl
}

// segmentDirty applies the per-root dirtiness triggers. Every trigger is
// conservative: it may mark a segment whose output would not change, but
// a clean verdict proves the previous inferences are still exact —
// classification under a root consults only (a) WHOIS blocks whose range
// intersects the root's, (b) BGP prefixes inside or covering the root
// (either way intersecting it), (c) the root holder's org and AutNums,
// and (d) relatedness of AS pairs recorded in the previous inferences.
func (p *Pipeline) segmentDirty(pl *regionPlan, ch *delta.Changes, si, psi int, rootPfx netutil.Prefix, root *whois.InetNum, whoisIdx *rangeIndex, changedOrgs map[string]bool, bgpIdx *rangeIndex) bool {
	seg, pseg := pl.ct.segs[si], pl.prevCT.segs[psi]
	// Shape guard: same entry span and same output-slot count. WHOIS
	// churn inside the root always intersects its range, so a mismatch
	// here would indicate a planner bug — re-classify rather than splice
	// misaligned slots.
	if seg.hi-seg.lo != pseg.hi-pseg.lo || segOutCount(pl.ct, si) != segOutCount(pl.prevCT, psi) {
		return true
	}
	rootRange := netutil.RangeOf(rootPfx)
	if whoisIdx != nil && whoisIdx.intersects(rootRange) {
		return true
	}
	if changedOrgs != nil && changedOrgs[root.OrgID] {
		return true
	}
	if bgpIdx.intersects(rootRange) {
		return true
	}
	if len(ch.RelASNs) > 0 {
		n := segOutCount(pl.prevCT, psi)
		infs := pl.prevRR.Inferences[pseg.out : int(pseg.out)+n]
		for i := range infs {
			if touchesASNs(&infs[i], ch.RelASNs) {
				return true
			}
		}
	}
	return false
}

// touchesASNs reports whether any AS pair the inference's classification
// compared has an endpoint in the changed set.
func touchesASNs(inf *Inference, changed map[uint32]bool) bool {
	for _, a := range inf.LeafOrigins {
		if changed[a] {
			return true
		}
	}
	for _, a := range inf.RootASNs {
		if changed[a] {
			return true
		}
	}
	for _, a := range inf.RootOrigins {
		if changed[a] {
			return true
		}
	}
	return false
}

// patchRegion materialises one registry's next RegionResult into out
// (the region's window of the caller's arena, len ct.totalOut): clean
// segments copy their previous inferences (inner slices aliased, not
// cloned), dirty segments re-classify on the worker pool into their
// preassigned output slots.
func (p *Pipeline) patchRegion(pl *regionPlan, out []Inference) *RegionResult {
	ct := pl.ct
	rr := &RegionResult{Registry: pl.db.Registry}
	var dirtyIdx []int
	for si := range ct.segs {
		if pl.dirty[si] {
			dirtyIdx = append(dirtyIdx, si)
			continue
		}
		seg := ct.segs[si]
		pseg := pl.prevCT.segs[pl.prevSeg[si]]
		n := segOutCount(ct, si)
		src := pl.prevRR.Inferences[pseg.out : int(pseg.out)+n]
		copy(out[seg.out:int(seg.out)+n], src)
		for k := range src {
			rr.Counts[src[k].Category]++
			if src[k].Category != Orphan {
				rr.TotalLeaves++
			}
		}
	}
	workers := shardCount(len(dirtyIdx))
	states := make([]*runState, workers)
	counts := make([][numCategories]int, workers)
	leaves := make([]int, workers)
	for w := range states {
		states[w] = p.newRunState()
	}
	err := par.Workers(len(dirtyIdx), workers, func(w, k int) error {
		p.classifySegment(pl.db, ct, ct.segs[dirtyIdx[k]], out, states[w], &counts[w], &leaves[w])
		return nil
	})
	if err != nil {
		panic(err) // recovered classification panic; see InferContext
	}
	for w := 0; w < workers; w++ {
		for c := range counts[w] {
			rr.Counts[c] += counts[w][c]
		}
		rr.TotalLeaves += leaves[w]
	}
	rr.Inferences = out
	return rr
}

// buildPatchPlan derives the flat-order index remap from the per-region
// plans. Flat order is Result.All order: whois.Registries order, then
// walk order within each region.
func buildPatchPlan(prev *Result, plans []*regionPlan, slots []*RegionResult) *PatchPlan {
	prevLen := 0
	for _, rr := range prev.Regions {
		prevLen += len(rr.Inferences)
	}
	plan := &PatchPlan{Remap: make([]int32, prevLen), PrevLen: prevLen}
	for i := range plan.Remap {
		plan.Remap[i] = -1
	}
	byReg := make(map[whois.Registry]int, len(plans))
	for i, pl := range plans {
		byReg[pl.reg] = i
	}
	prevBase, nextBase := 0, 0
	for _, reg := range whois.Registries {
		prevRR := prev.Regions[reg]
		i, ok := byReg[reg]
		if !ok {
			// Registry dropped from the next generation: its previous
			// entries stay -1 (deleted).
			if prevRR != nil {
				prevBase += len(prevRR.Inferences)
			}
			continue
		}
		pl := plans[i]
		nextN := len(slots[i].Inferences)
		switch {
		case pl.alias:
			for k := 0; k < nextN; k++ {
				plan.Remap[prevBase+k] = int32(nextBase + k)
			}
		case pl.full:
			for k := 0; k < nextN; k++ {
				plan.DirtyNext = append(plan.DirtyNext, int32(nextBase+k))
			}
		default:
			for si := range pl.ct.segs {
				seg := pl.ct.segs[si]
				n := segOutCount(pl.ct, si)
				if pl.dirty[si] {
					for k := 0; k < n; k++ {
						plan.DirtyNext = append(plan.DirtyNext, int32(nextBase)+seg.out+int32(k))
					}
					continue
				}
				pseg := pl.prevCT.segs[pl.prevSeg[si]]
				for k := 0; k < n; k++ {
					plan.Remap[prevBase+int(pseg.out)+k] = int32(nextBase) + seg.out + int32(k)
				}
			}
		}
		if prevRR != nil {
			prevBase += len(prevRR.Inferences)
		}
		nextBase += nextN
	}
	plan.NextLen = nextBase
	return plan
}

// segOutCount returns the number of output slots segment si owns.
func segOutCount(ct *cachedTree, si int) int {
	if si+1 < len(ct.segs) {
		return int(ct.segs[si+1].out - ct.segs[si].out)
	}
	return ct.totalOut - int(ct.segs[si].out)
}

// adopt seeds the cache with an already-built tree, unless the key is
// already present. The delta path uses it to alias the previous
// generation's tree into the next cache when a registry's WHOIS content
// is unchanged.
func (tc *TreeCache) adopt(key treeCacheKey, ct *cachedTree) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.m == nil {
		tc.m = make(map[treeCacheKey]*cachedTree)
	}
	if _, ok := tc.m[key]; !ok {
		tc.m[key] = ct
	}
}

// rangeIndex answers "does any changed range intersect this range" in
// O(log n): ranges sorted by first address plus a running maximum of
// last addresses, so nested and overlapping change ranges are handled.
type rangeIndex struct {
	first   []netutil.Addr
	maxLast []netutil.Addr
}

// newRangeIndex builds an index over ranges sorted by First.
func newRangeIndex(rs []netutil.Range) *rangeIndex {
	ix := &rangeIndex{
		first:   make([]netutil.Addr, len(rs)),
		maxLast: make([]netutil.Addr, len(rs)),
	}
	var max netutil.Addr
	for i, r := range rs {
		ix.first[i] = r.First
		if r.Last > max || i == 0 {
			max = r.Last
		}
		ix.maxLast[i] = max
	}
	return ix
}

func (ix *rangeIndex) intersects(t netutil.Range) bool {
	// Candidates start at or before t.Last; among them an intersection
	// exists iff the largest Last reaches t.First.
	i := sort.Search(len(ix.first), func(i int) bool { return ix.first[i] > t.Last })
	return i > 0 && ix.maxLast[i-1] >= t.First
}

// prefixRanges converts prefixes (in canonical order) to their ranges
// (sorted by first address, as rangeIndex requires).
func prefixRanges(ps []netutil.Prefix) []netutil.Range {
	out := make([]netutil.Range, len(ps))
	for i, p := range ps {
		out[i] = netutil.RangeOf(p)
	}
	return out
}
