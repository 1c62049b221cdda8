// Package core implements the paper's leasing-inference methodology
// (§5.1–§5.2): it builds per-RIR address allocation trees from WHOIS data,
// resolves BGP origins for roots and leaves, and classifies every
// non-portable leaf prefix into the paper's four groups, flagging leases.
//
// The pipeline's inputs are the substrate types: a whois.Dataset, a
// bgp.Table built from MRT RIB dumps, a CAIDA-style asrel.Graph, and an
// as2org.Map for sibling detection.
package core

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/bgp"
	"ipleasing/internal/netutil"
	"ipleasing/internal/par"
	"ipleasing/internal/prefixtree"
	"ipleasing/internal/telemetry"
	"ipleasing/internal/whois"
)

// Category is the paper's classification of a leaf prefix (§5.2).
type Category int

const (
	// Unused (group 1): neither the leaf nor its root is originated in
	// BGP.
	Unused Category = iota
	// AggregatedCustomer (group 2): only the root is originated; the
	// leaf was aggregated into its parent announcement.
	AggregatedCustomer
	// ISPCustomer (group 3): only the leaf is originated, by an AS
	// related to the root's RIR-assigned ASes.
	ISPCustomer
	// LeasedNoRootOrigin (group 3, leased): only the leaf is originated,
	// by an AS unrelated to the root's ASes.
	LeasedNoRootOrigin
	// DelegatedCustomer (group 4): both are originated and the leaf's
	// origin is related to the root's assigned AS or BGP origin.
	DelegatedCustomer
	// LeasedWithRootOrigin (group 4, leased): both are originated and
	// the leaf's origin is related to neither.
	LeasedWithRootOrigin
	// Orphan: a non-portable leaf with no covering root block in the
	// registry; the paper's method cannot classify it.
	Orphan
	numCategories
)

var categoryNames = [...]string{
	"unused", "aggregated-customer", "isp-customer", "leased-3",
	"delegated-customer", "leased-4", "orphan",
}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return "invalid"
	}
	return categoryNames[c]
}

// Leased reports whether the category is one of the two leased groups.
func (c Category) Leased() bool {
	return c == LeasedNoRootOrigin || c == LeasedWithRootOrigin
}

// Group returns the paper's group number (1–4), or 0 for Orphan.
func (c Category) Group() int {
	switch c {
	case Unused:
		return 1
	case AggregatedCustomer:
		return 2
	case ISPCustomer, LeasedNoRootOrigin:
		return 3
	case DelegatedCustomer, LeasedWithRootOrigin:
		return 4
	}
	return 0
}

// Inference is the classification of one leaf prefix, with the business
// roles of Figure 1 attached: the root org is the IP holder, the leaf
// maintainers are the facilitators, and the leaf's BGP origins are the
// originators.
type Inference struct {
	Registry whois.Registry
	Prefix   netutil.Prefix // the leaf prefix
	Category Category

	Root        netutil.Prefix // covering root prefix (zero if Orphan)
	HolderOrg   string         // root block's organisation (IP holder)
	RootASNs    []uint32       // RIR-assigned ASNs of the holder org
	RootOrigins []uint32       // BGP origins of the root (exact or covering)
	LeafOrigins []uint32       // BGP origins of the leaf (exact match)

	Facilitators []string // leaf maintainer handles
	NetName      string
	Country      string
}

// Originator returns the primary origin AS of the leaf, or 0 if the leaf
// is not announced.
func (inf *Inference) Originator() uint32 {
	if len(inf.LeafOrigins) == 0 {
		return 0
	}
	return inf.LeafOrigins[0]
}

// Options tunes the pipeline. The zero value is the paper's methodology;
// the other fields drive the DESIGN.md ablations.
type Options struct {
	// MaxPrefixLen drops hyper-specific blocks longer than this from the
	// allocation tree. 0 means the paper's default of 24.
	MaxPrefixLen uint8
	// RootLookupExactOnly disables the least-specific covering-prefix
	// fallback when resolving root origins (ablation: aggregated roots
	// then look unused).
	RootLookupExactOnly bool
	// DisableSiblingExpansion turns off as2org sibling matching in the
	// relatedness test (ablation: subsidiaries become false leases).
	DisableSiblingExpansion bool
	// MinVisibility discards an origin lookup's answer — the exact match,
	// or the least-specific covering prefix of the root fallback — when
	// that prefix is carried by fewer vantage points (sensitivity study
	// for the §7 incomplete-BGP-data limitation). The fallback does not
	// move on to a more specific cover. 0 or 1 disables the filter.
	MinVisibility int
}

func (o Options) maxLen() uint8 {
	if o.MaxPrefixLen == 0 {
		return 24
	}
	return o.MaxPrefixLen
}

// Pipeline wires the datasets together.
type Pipeline struct {
	Whois *whois.Dataset
	Table *bgp.Table
	Rel   *asrel.Graph
	Orgs  *as2org.Map
	Opts  Options
	// Trees, when set, caches the per-registry allocation trees across
	// Infer runs. The tree depends only on the WHOIS data and
	// MaxPrefixLen, so repeated inference over one dataset (benchmark
	// loops, ablation sweeps, the longitudinal market analysis) skips
	// re-decomposing and re-inserting every registered block. A cache
	// must not be shared between Pipelines over different WHOIS data.
	Trees *TreeCache
}

// TreeCache memoises allocation trees keyed by registry and the
// hyper-specific cut-off. Safe for concurrent use; each key is built at
// most once.
type TreeCache struct {
	mu sync.Mutex
	m  map[treeCacheKey]*cachedTree
}

// NewTreeCache returns an empty cache.
func NewTreeCache() *TreeCache { return &TreeCache{} }

type treeCacheKey struct {
	reg    whois.Registry
	maxLen uint8
}

// cachedTree is one registry's allocation tree with its walk order and
// hierarchy precomputed: entries lists every inserted block in Walk
// order, rootOf[i] is the index of entry i's allocation-forest root
// (-1 for roots themselves), and segs partitions the entries into
// per-root shards with preassigned output slots.
type cachedTree struct {
	once    sync.Once
	entries []prefixtree.Entry[treeValue]
	rootOf  []int32
	// segs and totalOut are the shard plan for inferRegion: one segment
	// per allocation-forest root, with the exact output offset of each
	// segment's first inference, so concurrent shards write disjoint
	// slices of one pre-sized result and the merged order is identical
	// to a serial walk at any GOMAXPROCS.
	segs     []segment
	totalOut int
}

func (ct *cachedTree) build(p *Pipeline, db *whois.Database) {
	ct.entries = p.BuildTree(db).Entries()
	// Walk order emits supernets before their subnets, so a depth-indexed
	// stack of ancestor indexes resolves each entry's root in one pass,
	// without a per-leaf trie descent.
	ct.rootOf = make([]int32, len(ct.entries))
	var stack []int32
	for i := range ct.entries {
		d := ct.entries[i].Depth
		if d == 0 {
			ct.rootOf[i] = -1
		} else {
			ct.rootOf[i] = stack[0]
		}
		stack = append(stack[:d], int32(i))
	}
	ct.segs, ct.totalOut = buildSegments(ct.entries)
}

// segment is one intra-registry inference shard: the contiguous run of
// Walk-order entries under a single allocation-forest root (a Depth-0
// entry and everything inside it). Each leaf's classification depends
// only on its own root and the shared read-only substrates, so segments
// are independent units of work. out is the index in the region's
// output slice where the segment's first inference lands.
type segment struct {
	lo, hi int32 // entry index range [lo, hi)
	out    int32 // output slot of the segment's first inference
}

// classifiable reports whether an entry produces an Inference: a leaf
// of the allocation forest registered as non-portable. This predicate
// is what makes per-segment output counts computable up front.
func classifiable(e *prefixtree.Entry[treeValue]) bool {
	return !e.HasChildren && e.Value.inet.Portability == whois.NonPortable
}

// buildSegments cuts the Walk-order entries at every Depth-0 boundary
// and prefix-sums the classified-leaf counts into output offsets.
func buildSegments(entries []prefixtree.Entry[treeValue]) ([]segment, int) {
	nroots := 0
	for i := range entries {
		if entries[i].Depth == 0 {
			nroots++
		}
	}
	segs := make([]segment, 0, nroots)
	out := 0
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && entries[j].Depth > 0 {
			j++
		}
		segs = append(segs, segment{lo: int32(i), hi: int32(j), out: int32(out)})
		for k := i; k < j; k++ {
			if classifiable(&entries[k]) {
				out++
			}
		}
		i = j
	}
	return segs, out
}

// allocTree returns the allocation tree state for db, from p.Trees when
// the pipeline has a cache and freshly built otherwise.
func (p *Pipeline) allocTree(db *whois.Database) *cachedTree {
	if p.Trees == nil {
		ct := &cachedTree{}
		ct.build(p, db)
		return ct
	}
	key := treeCacheKey{reg: db.Registry, maxLen: p.Opts.maxLen()}
	p.Trees.mu.Lock()
	if p.Trees.m == nil {
		p.Trees.m = make(map[treeCacheKey]*cachedTree)
	}
	ct, ok := p.Trees.m[key]
	if !ok {
		ct = &cachedTree{}
		p.Trees.m[key] = ct
	}
	p.Trees.mu.Unlock()
	ct.once.Do(func() { ct.build(p, db) })
	return ct
}

// Related implements the paper's AS-relatedness test: equal ASNs, a direct
// CAIDA relationship edge, or (unless ablated) as2org siblinghood.
func (p *Pipeline) Related(a, b uint32) bool {
	if a == b {
		return true
	}
	if p.Rel != nil && p.Rel.Related(a, b) {
		return true
	}
	if !p.Opts.DisableSiblingExpansion && p.Orgs != nil && p.Orgs.Siblings(a, b) {
		return true
	}
	return false
}

// runState holds one region's per-run memoisation: the classification of
// thousands of leaves under a handful of distinct roots repeats the same
// root resolutions and AS-pair relatedness probes, so both are cached for
// the duration of one Infer call. Each region goroutine owns its own
// runState, keeping the hot path lock-free.
type runState struct {
	roots map[netutil.Prefix]*rootInfo
	rel   map[uint64]bool
}

func (p *Pipeline) newRunState() *runState {
	return &runState{
		roots: make(map[netutil.Prefix]*rootInfo),
		rel:   make(map[uint64]bool),
	}
}

// rootInfo is everything classifyLeaf needs about a covering root block,
// computed once per distinct root instead of once per leaf.
type rootInfo struct {
	asns       []uint32 // RIR-assigned ASNs of the holder org (§5.1 step 3)
	origins    []uint32 // root BGP origins, exact or covering fallback (step 4)
	candidates []uint32 // asns ++ origins, the group-4 relatedness pool
}

// relatedCached is Related behind the per-run AS-pair memo.
func (p *Pipeline) relatedCached(st *runState, a, b uint32) bool {
	key := uint64(a)<<32 | uint64(b)
	if v, ok := st.rel[key]; ok {
		return v
	}
	v := p.Related(a, b)
	st.rel[key] = v
	return v
}

func (p *Pipeline) relatedToAny(st *runState, origin uint32, candidates []uint32) bool {
	for _, c := range candidates {
		if p.relatedCached(st, origin, c) {
			return true
		}
	}
	return false
}

// treeValue is the allocation-tree payload for one registered prefix.
type treeValue struct {
	inet *whois.InetNum
}

// RegionResult is one registry's classified leaves plus summary counts.
type RegionResult struct {
	Registry   whois.Registry
	Inferences []Inference
	Counts     [numCategories]int
	// TotalLeaves counts the classified non-portable leaf prefixes
	// (orphans excluded), matching Table 1's denominators.
	TotalLeaves int
}

// Leased returns the number of leased leaf prefixes.
func (r *RegionResult) Leased() int {
	return r.Counts[LeasedNoRootOrigin] + r.Counts[LeasedWithRootOrigin]
}

// Result is the full inference output.
type Result struct {
	Regions map[whois.Registry]*RegionResult
	// TotalBGPPrefixes is the number of distinct prefixes in the routing
	// table (Table 1's "all routed prefixes" denominator).
	TotalBGPPrefixes int
	// RoutedSpace is the number of routed IPv4 addresses.
	RoutedSpace uint64

	// flat, when non-nil, holds every inference contiguously in All
	// order (registry order then prefix order). InferContext and
	// ApplyDelta classify regions into this arena, so Flat can serve
	// the concatenation without the extra full-result copy All pays.
	flat []Inference
}

// each visits every inference in registry order then prefix order —
// the same order All returns — without materialising the concatenated
// slice. The pointer is into the region's backing array; callers must
// not retain it past the callback.
func (r *Result) each(fn func(inf *Inference) bool) {
	for _, reg := range whois.Registries {
		rr, ok := r.Regions[reg]
		if !ok {
			continue
		}
		for i := range rr.Inferences {
			if !fn(&rr.Inferences[i]) {
				return
			}
		}
	}
}

// All returns every inference across registries, registry order then
// prefix order.
func (r *Result) All() []Inference {
	n := 0
	for _, rr := range r.Regions {
		n += len(rr.Inferences)
	}
	if n == 0 {
		return nil
	}
	out := make([]Inference, 0, n)
	r.each(func(inf *Inference) bool {
		out = append(out, *inf)
		return true
	})
	return out
}

// Flat returns every inference in All order. Unlike All, the returned
// slice may alias the Result's internal storage and must be treated as
// read-only; use it where the concatenation is long-lived and never
// mutated (the serving snapshot). Falls back to a fresh All copy when
// no arena was materialised (a Result assembled by hand).
func (r *Result) Flat() []Inference {
	if r.flat != nil {
		return r.flat
	}
	return r.All()
}

// NumCategories is the category count, exported for callers that tally
// categories (the serving layer's record validation).
const NumCategories = int(numCategories)

// LeasedInferences returns only the leased inferences.
func (r *Result) LeasedInferences() []Inference {
	var out []Inference
	r.each(func(inf *Inference) bool {
		if inf.Category.Leased() {
			out = append(out, *inf)
		}
		return true
	})
	return out
}

// TotalLeased returns the leased-prefix count across registries.
func (r *Result) TotalLeased() int {
	n := 0
	for _, rr := range r.Regions {
		n += rr.Leased()
	}
	return n
}

// LeasedShareOfBGP returns leased prefixes as a fraction of all routed
// prefixes (the paper's headline 4.1%).
func (r *Result) LeasedShareOfBGP() float64 {
	if r.TotalBGPPrefixes == 0 {
		return 0
	}
	return float64(r.TotalLeased()) / float64(r.TotalBGPPrefixes)
}

// LeasedAddressSpace returns the number of addresses in leased leaf
// prefixes.
func (r *Result) LeasedAddressSpace() uint64 {
	var n uint64
	r.each(func(inf *Inference) bool {
		if inf.Category.Leased() {
			n += inf.Prefix.NumAddrs()
		}
		return true
	})
	return n
}

// Infer runs the full methodology over every registry. Registries are
// processed concurrently: they share only read-only inputs (the routing
// table, relationship graph, and org map), and each produces an
// independent RegionResult.
func (p *Pipeline) Infer() *Result {
	return p.InferContext(context.Background())
}

// InferContext is Infer under a context. When the context carries a
// telemetry trace, each registry's classification runs inside an
// "infer.<RIR>" span annotated with the number of leaves it classified
// and the number of shards it fanned out to.
func (p *Pipeline) InferContext(ctx context.Context) *Result {
	res := &Result{Regions: make(map[whois.Registry]*RegionResult)}
	if p.Table != nil {
		// Index the routing table once, before the region fan-out, so
		// the origin queries below are allocation-free cache reads
		// (Freeze is idempotent).
		p.Table.Freeze()
		res.TotalBGPPrefixes = p.Table.NumPrefixes()
		res.RoutedSpace = p.Table.RoutedAddressSpace()
	}
	// Fan out one goroutine per present registry, each writing its
	// pre-assigned slots — no lock, no map writes from worker goroutines,
	// and the merge below is a deterministic in-order walk.
	type regionWork struct {
		reg whois.Registry
		db  *whois.Database
	}
	var work []regionWork
	for _, reg := range whois.Registries {
		if db, ok := p.Whois.DBs[reg]; ok {
			work = append(work, regionWork{reg: reg, db: db})
		}
	}
	// Two passes. The first builds (or fetches from the cache) each
	// registry's allocation tree, which fixes its output size; one arena
	// sized to the total then backs every region, and the second pass
	// classifies each region straight into its cap-limited window. Flat
	// returns that arena, so the serving snapshot needs no second copy
	// of every inference. A region's span covers both passes.
	trees := make([]*cachedTree, len(work))
	spans := make([]*telemetry.Span, len(work))
	err := par.Each(len(work), func(i int) error {
		_, spans[i] = telemetry.StartSpan(ctx, "infer."+work[i].reg.String())
		trees[i] = p.allocTree(work[i].db)
		return nil
	})
	if err != nil {
		panic(err) // recovered tree-build panic; re-panicked as below
	}
	offs := make([]int, len(work))
	total := 0
	for i, ct := range trees {
		offs[i] = total
		total += ct.totalOut
	}
	arena := make([]Inference, total)
	slots := make([]*RegionResult, len(work))
	err = par.Each(len(work), func(i int) error {
		lo, hi := offs[i], offs[i]+trees[i].totalOut
		rr, shards := p.classifyRegion(work[i].db, trees[i], arena[lo:hi:hi])
		sp := spans[i]
		sp.AddRecords(int64(len(rr.Inferences)))
		sp.SetAttr("shards", strconv.Itoa(shards))
		sp.End()
		slots[i] = rr
		return nil
	})
	if err != nil {
		// The workers return no errors, so this can only be a recovered
		// classification panic; re-panic to preserve the pre-par
		// behaviour (callers like serve contain it at their boundary).
		panic(err)
	}
	for i, w := range work {
		res.Regions[w.reg] = slots[i]
	}
	res.flat = arena
	return res
}

// BuildTree constructs one registry's allocation tree (§5.1 step 2):
// all non-legacy registered blocks, decomposed to CIDR, hyper-specifics
// dropped. Exposed for the baseline comparison and tests.
func (p *Pipeline) BuildTree(db *whois.Database) *prefixtree.Tree[treeValue] {
	tree := &prefixtree.Tree[treeValue]{}
	maxLen := p.Opts.maxLen()
	for _, inet := range db.InetNums {
		if inet.Portability == whois.Legacy || inet.Portability == whois.PortabilityUnknown {
			continue
		}
		for _, pfx := range inet.Prefixes() {
			if pfx.Len > maxLen {
				continue
			}
			tree.InsertIfAbsent(pfx, treeValue{inet: inet})
		}
	}
	return tree
}

// shardCount picks the intra-registry fan-out width: one shard per
// available CPU, never more than there are root segments to steal. At
// GOMAXPROCS 1 this is 1 and inference degrades to the serial walk.
func shardCount(nsegs int) int {
	n := runtime.GOMAXPROCS(0)
	if n > nsegs {
		n = nsegs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// inferRegion classifies one registry's leaves, sharded across
// allocation-forest roots. Shards are scheduled dynamically (registry
// sizes are wildly skewed, and so are root sizes within a registry):
// each worker steals the next root segment and writes its inferences
// into that segment's preassigned slots of the shared output slice, so
// the merged result is bit-for-bit the serial walk order regardless of
// worker count or scheduling. Each worker owns a private runState —
// root resolutions and AS-relatedness probes repeat across the leaves
// of one root, so worker-local memos keep nearly all hits while the
// hot path stays lock-free. Returns the region result and the number
// of shards used.
func (p *Pipeline) inferRegion(db *whois.Database) (*RegionResult, int) {
	ct := p.allocTree(db)
	return p.classifyRegion(db, ct, make([]Inference, ct.totalOut))
}

// classifyRegion is inferRegion over an already-resolved tree, writing
// into out (len ct.totalOut), which becomes the region's Inferences.
func (p *Pipeline) classifyRegion(db *whois.Database, ct *cachedTree, out []Inference) (*RegionResult, int) {
	rr := &RegionResult{Registry: db.Registry}
	workers := shardCount(len(ct.segs))
	states := make([]*runState, workers)
	counts := make([][numCategories]int, workers)
	leaves := make([]int, workers)
	for w := range states {
		states[w] = p.newRunState()
	}
	err := par.Workers(len(ct.segs), workers, func(w, si int) error {
		p.classifySegment(db, ct, ct.segs[si], out, states[w], &counts[w], &leaves[w])
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
	return rr, workers
}

// classifySegment classifies one shard — the entries of a single
// allocation-forest root — writing inferences into the segment's
// preassigned slots of out and tallying into the caller's count cells.
// It is the shared re-inference unit of the full path (inferRegion) and
// the incremental delta path (ApplyDelta).
func (p *Pipeline) classifySegment(db *whois.Database, ct *cachedTree, seg segment, out []Inference, st *runState, counts *[numCategories]int, leaves *int) {
	o := int(seg.out)
	for i := int(seg.lo); i < int(seg.hi); i++ {
		e := &ct.entries[i]
		if e.HasChildren {
			continue // intermediate or root with children: not a leaf
		}
		leaf := e.Value.inet
		if leaf.Portability != whois.NonPortable {
			continue // standalone portable block: root-only, skip
		}
		var (
			rootPfx netutil.Prefix
			root    *whois.InetNum
		)
		if e.Depth > 0 {
			re := &ct.entries[ct.rootOf[i]]
			rootPfx, root = re.Prefix, re.Value.inet
		}
		inf := p.classifyLeaf(db, e.Prefix, leaf, rootPfx, root, st)
		counts[inf.Category]++
		if inf.Category != Orphan {
			*leaves++
		}
		out[o] = inf
		o++
	}
}

// resolveRoot computes (or fetches from the per-run cache) the root-level
// inputs of §5.1 steps 3–4: the holder org's RIR-assigned ASNs, the
// root's BGP origins (with the covering-prefix fallback unless ablated),
// and the combined group-4 candidate pool. Every field is a deterministic
// function of the root prefix under one run's fixed Options, which is
// what makes caching by root prefix sound.
func (p *Pipeline) resolveRoot(db *whois.Database, rootPfx netutil.Prefix, root *whois.InetNum, st *runState) *rootInfo {
	if ri, ok := st.roots[rootPfx]; ok {
		return ri
	}
	ri := &rootInfo{asns: db.ASNsOfOrg(root.OrgID)}
	if p.Table != nil {
		ri.origins = p.Table.OriginsMinVisibility(rootPfx, p.Opts.MinVisibility)
		if len(ri.origins) == 0 && !p.Opts.RootLookupExactOnly {
			if cp, origins, ok := p.Table.CoveringOrigins(rootPfx); ok {
				if p.Opts.MinVisibility <= 1 || p.Table.Visibility(cp) >= p.Opts.MinVisibility {
					ri.origins = origins
				}
			}
		}
	}
	if n := len(ri.asns) + len(ri.origins); n > 0 {
		ri.candidates = make([]uint32, 0, n)
		ri.candidates = append(append(ri.candidates, ri.asns...), ri.origins...)
	}
	st.roots[rootPfx] = ri
	return ri
}

// classifyLeaf classifies one non-portable leaf against its resolved
// allocation-forest root (nil root means no covering root block exists).
func (p *Pipeline) classifyLeaf(db *whois.Database, pfx netutil.Prefix, leaf *whois.InetNum, rootPfx netutil.Prefix, root *whois.InetNum, st *runState) Inference {
	inf := Inference{
		Registry:     db.Registry,
		Prefix:       pfx,
		Facilitators: leaf.MntBy,
		NetName:      leaf.NetName,
		Country:      leaf.Country,
	}
	if root == nil {
		// Non-portable block with no covering root allocation.
		inf.Category = Orphan
		return inf
	}
	inf.Root = rootPfx
	inf.HolderOrg = root.OrgID
	if inf.Country == "" {
		inf.Country = root.Country
	}

	// Steps 3–4, root side: resolved once per distinct root. The slices
	// are shared across every leaf under the same root; they are never
	// mutated downstream.
	ri := p.resolveRoot(db, rootPfx, root, st)
	inf.RootASNs = ri.asns
	inf.RootOrigins = ri.origins

	// Step 4, leaf side: exact match only, discounting poorly-seen
	// announcements under MinVisibility.
	if p.Table != nil {
		inf.LeafOrigins = p.Table.OriginsMinVisibility(pfx, p.Opts.MinVisibility)
	}

	// Step 5: classification (§5.2).
	leafUp := len(inf.LeafOrigins) > 0
	rootUp := len(inf.RootOrigins) > 0
	switch {
	case !leafUp && !rootUp:
		inf.Category = Unused
	case !leafUp && rootUp:
		inf.Category = AggregatedCustomer
	case leafUp && !rootUp:
		if p.anyRelated(st, inf.LeafOrigins, inf.RootASNs) {
			inf.Category = ISPCustomer
		} else {
			inf.Category = LeasedNoRootOrigin
		}
	default: // both announced
		if p.anyRelated(st, inf.LeafOrigins, ri.candidates) {
			inf.Category = DelegatedCustomer
		} else {
			inf.Category = LeasedWithRootOrigin
		}
	}
	return inf
}

func (p *Pipeline) anyRelated(st *runState, origins, candidates []uint32) bool {
	for _, o := range origins {
		if p.relatedToAny(st, o, candidates) {
			return true
		}
	}
	return false
}

// SortInferences orders inferences by registry then prefix, for
// deterministic output.
func SortInferences(infs []Inference) {
	sort.Slice(infs, func(i, j int) bool {
		if infs[i].Registry != infs[j].Registry {
			return infs[i].Registry < infs[j].Registry
		}
		return infs[i].Prefix.Compare(infs[j].Prefix) < 0
	})
}
