// Package refclassify is a second, deliberately plain implementation of
// the paper's leaf classification (§5.1–§5.2), kept only as a test oracle
// for internal/core. It is written from the paper and DESIGN §1 and
// shares no classification code with core: no prefix trie, no worker
// pool, no arena, no tree cache, no LPM, and none of the routing table's
// or relationship graph's queries. Covering blocks are found by one
// linear pass over the registry's blocks in address order, origins by
// lookups in a map filled from the walked RIB, and relatedness from
// plain edge and org sets.
//
// The package holds only _test.go files, so nothing outside its own
// tests can come to depend on it. Where the paper leaves a choice open,
// the rule it follows is the one recorded in DESIGN §1.
package refclassify

import (
	"sort"

	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/whois"
)

// ribEntry is one announced prefix: its origin ASes and the number of
// vantage-point sightings that carried it, summed over origins.
type ribEntry struct {
	pfx     netutil.Prefix
	origins []uint32
	vis     int
}

// input is everything the reference reads: the parsed registries, the
// RIB, the CAIDA relationship edges (both directions) and the as2org
// membership of each ASN.
type input struct {
	dbs   []*whois.Database
	rib   []ribEntry
	edges map[[2]uint32]bool
	orgOf map[uint32]string
}

// leaf is one classification in the form it is compared with core's:
// origin and ASN lists are sorted sets.
type leaf struct {
	reg         whois.Registry
	pfx         netutil.Prefix
	cat         core.Category
	root        netutil.Prefix
	holder      string
	rootASNs    []uint32
	rootOrigins []uint32
	leafOrigins []uint32
}

// block is one CIDR of the allocation tree, its address span, and the
// registered object it came from.
type block struct {
	pfx         netutil.Prefix
	first, last uint32
	inet        *whois.InetNum
}

// classify runs the methodology over every registry of in.
func classify(in input, opts core.Options) []leaf {
	maxLen := opts.MaxPrefixLen
	if maxLen == 0 {
		maxLen = 24
	}
	// The origin lookups read the RIB through one map. Under
	// MinVisibility a prefix seen by too few vantage points still answers
	// a lookup, and visible then discards the answer (DESIGN §1).
	announced := make(map[netutil.Prefix]*ribEntry, len(in.rib))
	for i := range in.rib {
		announced[in.rib[i].pfx] = &in.rib[i]
	}
	visible := func(e *ribEntry) []uint32 {
		if e == nil || (opts.MinVisibility > 1 && e.vis < opts.MinVisibility) {
			return nil
		}
		return e.origins
	}
	related := func(a, b uint32) bool {
		if a == b || in.edges[[2]uint32{a, b}] {
			return true
		}
		if opts.DisableSiblingExpansion {
			return false
		}
		oa, oka := in.orgOf[a]
		ob, okb := in.orgOf[b]
		return oka && okb && oa == ob
	}
	anyRelated := func(xs, ys []uint32) bool {
		for _, x := range xs {
			for _, y := range ys {
				if related(x, y) {
					return true
				}
			}
		}
		return false
	}

	var out []leaf
	for _, db := range in.dbs {
		// §5.1 step 3: the ASes each organisation registered.
		asnsOf := make(map[string][]uint32)
		for _, a := range db.AutNums {
			if a.OrgID != "" {
				asnsOf[a.OrgID] = append(asnsOf[a.OrgID], a.Number)
			}
		}
		blocks := treeBlocks(db, maxLen)
		// CIDR blocks nest or are disjoint. Ordered by first address,
		// shorter first on ties, every block comes right before the
		// blocks inside it, so one pass finds each block's outermost
		// cover (the last top-level block, if it reaches this far) and
		// whether any block lies inside it (the next block starts
		// inside it).
		sort.SliceStable(blocks, func(i, j int) bool {
			if blocks[i].first != blocks[j].first {
				return blocks[i].first < blocks[j].first
			}
			return blocks[i].pfx.Len < blocks[j].pfx.Len
		})
		top := -1
		for i, b := range blocks {
			root := -1
			if top >= 0 && b.first <= blocks[top].last {
				root = top
			} else {
				top = i
			}
			if b.inet.Portability != whois.NonPortable ||
				(i+1 < len(blocks) && blocks[i+1].first <= b.last) {
				continue // not a non-portable leaf
			}
			l := leaf{reg: db.Registry, pfx: b.pfx, cat: core.Orphan}
			if root < 0 {
				out = append(out, l)
				continue
			}
			r := blocks[root]
			l.root, l.holder = r.pfx, r.inet.OrgID
			l.rootASNs = asnsOf[l.holder]
			l.rootOrigins = visible(announced[r.pfx])
			if len(l.rootOrigins) == 0 && !opts.RootLookupExactOnly {
				l.rootOrigins = visible(leastSpecificCover(announced, r.pfx))
			}
			l.leafOrigins = visible(announced[b.pfx])

			leafUp, rootUp := len(l.leafOrigins) > 0, len(l.rootOrigins) > 0
			switch {
			case !leafUp && !rootUp:
				l.cat = core.Unused
			case !leafUp:
				l.cat = core.AggregatedCustomer
			case !rootUp:
				l.cat = core.LeasedNoRootOrigin
				if anyRelated(l.leafOrigins, l.rootASNs) {
					l.cat = core.ISPCustomer
				}
			default:
				l.cat = core.LeasedWithRootOrigin
				if anyRelated(l.leafOrigins, l.rootASNs) || anyRelated(l.leafOrigins, l.rootOrigins) {
					l.cat = core.DelegatedCustomer
				}
			}
			l.rootASNs = set(l.rootASNs)
			l.rootOrigins = set(l.rootOrigins)
			l.leafOrigins = set(l.leafOrigins)
			out = append(out, l)
		}
	}
	return out
}

// treeBlocks lists one registry's allocation-tree blocks (§5.1 step 2):
// the CIDRs of every portable and non-portable object, hyper-specifics
// longer than maxLen dropped. A CIDR that two objects decompose to
// belongs to the first of them in dump order.
func treeBlocks(db *whois.Database, maxLen uint8) []block {
	var blocks []block
	seen := make(map[netutil.Prefix]bool)
	for _, inet := range db.InetNums {
		if inet.Portability != whois.Portable && inet.Portability != whois.NonPortable {
			continue
		}
		for _, p := range cidrs(uint32(inet.Range.First), uint32(inet.Range.Last)) {
			if p.Len > maxLen || seen[p] {
				continue
			}
			seen[p] = true
			first := uint32(p.Base)
			blocks = append(blocks, block{pfx: p, first: first, last: first | ^mask(p.Len), inet: inet})
		}
	}
	return blocks
}

// leastSpecificCover returns the shortest announced prefix covering p (p
// itself included), or nil.
func leastSpecificCover(announced map[netutil.Prefix]*ribEntry, p netutil.Prefix) *ribEntry {
	for l := uint8(0); l <= p.Len; l++ {
		if e := announced[netutil.Prefix{Base: netutil.Addr(uint32(p.Base) & mask(l)), Len: l}]; e != nil {
			return e
		}
	}
	return nil
}

// cidrs splits [first, last] into its minimal CIDR blocks, lowest first:
// each step takes the largest aligned block that starts at first and
// ends at or before last.
func cidrs(first, last uint32) []netutil.Prefix {
	var out []netutil.Prefix
	lo, hi := uint64(first), uint64(last)
	for lo <= hi {
		l := uint8(32)
		for l > 0 {
			size := uint64(1) << (33 - uint64(l))
			if lo%size != 0 || lo+size-1 > hi {
				break
			}
			l--
		}
		out = append(out, netutil.Prefix{Base: netutil.Addr(uint32(lo)), Len: l})
		lo += uint64(1) << (32 - uint64(l))
	}
	return out
}

// mask is the network mask of a length-l prefix.
func mask(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// set returns xs sorted with duplicates removed, nil when empty.
func set(xs []uint32) []uint32 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]uint32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 1
	for _, x := range out[1:] {
		if x != out[n-1] {
			out[n] = x
			n++
		}
	}
	return out[:n]
}
