package netutil

import (
	"math/bits"
	"sort"
)

// LPM is an immutable longest-prefix-match index over a set of IPv4
// prefixes, mapping each to its position in the input slice. It exists
// for query paths that classify addresses at line rate (the serving
// layer's address lookups, utilization sweeps over millions of
// addresses): a lookup is a short descent over a flat, pointer-free
// node array — no per-length probing, no hashing, no allocation.
//
// Layout: a path-compressed binary trie flattened into one []lpmNode
// (children are int32 indexes, not pointers, so the whole structure is
// a handful of contiguous allocations and the GC never traverses it),
// level-compressed at the top by a 256-entry stride-8 root table. The
// table jumps a lookup straight to the subtree of its first octet with
// the best match among /0../7 prefixes precomputed, so a descent only
// ever touches nodes at depth >= 8 — at most prefix-diversity-many
// nodes, O(tree depth) overall.
//
// Build once with BuildLPM; concurrent readers are safe forever after.
// The zero value is an empty index whose lookups all miss.
type LPM struct {
	nodes []lpmNode
	root8 [256]lpmRootEntry
	// dups records that some prefix was inserted more than once, i.e. a
	// node's value was overwritten. The shadowed value is unrecoverable
	// from the structure, so a duplicate-bearing index refuses to Patch
	// (the caller rebuilds instead).
	dups bool
}

// lpmNode is one flattened trie node. mask/base duplicate the prefix as
// a precomputed compare so the descent's containment test is one AND
// and one compare, with no shifting.
type lpmNode struct {
	base uint32   // network address of the node's prefix
	mask uint32   // network mask of the node's prefix
	val  int32    // input index of the inserted prefix, -1 if structural
	kid  [2]int32 // children by next-bit value, -1 if none; indexed, not
	// branched on, so a random-address descent never pays a
	// misprediction per level
	len uint8 // prefix length; branch bit position during descent
}

// lpmRootEntry is one stride-8 table slot: where to start descending
// for addresses in that /8, and the best already-matched value from
// prefixes shorter than 8 bits.
type lpmRootEntry struct {
	start int32 // node index, -1 if the /8 has no subtree
	best  int32 // deepest matching val among /0../7 covers, -1 if none
}

// BuildLPM indexes ps for longest-prefix-match lookup. The value
// reported for a match is the matched prefix's index in ps. Prefixes
// are canonicalized; when duplicates occur the highest index wins,
// matching "last write wins" map-population order. The input slice is
// not retained.
func BuildLPM(ps []Prefix) *LPM {
	t := &LPM{}
	if len(ps) == 0 {
		for b := range t.root8 {
			t.root8[b] = lpmRootEntry{start: -1, best: -1}
		}
		return t
	}
	// Insert in sorted (base, len) order: supernets arrive before their
	// subnets, so insertion never splices a new node above an existing
	// subtree and the spine-descent below stays short. Order only
	// affects construction speed, not the resulting structure.
	order := make([]int32, len(ps))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := ps[order[i]].Canonicalize(), ps[order[j]].Canonicalize()
		if c := a.Compare(b); c != 0 {
			return c < 0
		}
		return order[i] < order[j] // duplicates: ascending, so the last insert wins
	})
	t.nodes = make([]lpmNode, 1, 2*len(ps)+1)
	t.nodes[0] = lpmNode{val: -1, kid: [2]int32{-1, -1}} // /0 anchor: base 0, mask 0
	for _, idx := range order {
		t.insert(ps[idx].Canonicalize(), idx)
	}
	t.buildRoot8()
	return t
}

// prefix reconstructs the node's Prefix (build/debug paths only).
func (n *lpmNode) prefix() Prefix {
	return Prefix{Base: Addr(n.base), Len: n.len}
}

// insert threads p into the flat trie. Node references are kept as
// indexes, never pointers: newNode may grow (reallocate) the backing
// slice, so child links are written through setChild after any append.
func (t *LPM) insert(p Prefix, val int32) {
	n := int32(0)
	for {
		nd := t.nodes[n]
		if nd.base == uint32(p.Base) && nd.len == p.Len {
			if t.nodes[n].val >= 0 {
				t.dups = true
			}
			t.nodes[n].val = val
			return
		}
		// p is strictly inside node n's prefix here.
		side := p.Bit(nd.len)
		c := nd.kid[side]
		if c < 0 {
			t.nodes[n].kid[side] = t.newNode(p, val)
			return
		}
		cp := t.nodes[c].prefix()
		if cp.ContainsPrefix(p) {
			n = c
			continue
		}
		if p.ContainsPrefix(cp) {
			// Splice p above c (unreachable from sorted insertion
			// order, kept so the structure is correct for any order).
			nn := t.newNode(p, val)
			t.nodes[nn].kid[cp.Bit(p.Len)] = c
			t.nodes[n].kid[side] = nn
			return
		}
		// Diverged: branch at the longest common ancestor.
		anc := commonAncestor(p, cp)
		br := t.newNode(anc, -1)
		nn := t.newNode(p, val)
		t.nodes[br].kid[p.Bit(anc.Len)] = nn
		t.nodes[br].kid[cp.Bit(anc.Len)] = c
		t.nodes[n].kid[side] = br
		return
	}
}

func (t *LPM) newNode(p Prefix, val int32) int32 {
	t.nodes = append(t.nodes, lpmNode{
		base: uint32(p.Base),
		mask: maskOf(p.Len),
		len:  p.Len,
		val:  val,
		kid:  [2]int32{-1, -1},
	})
	return int32(len(t.nodes) - 1)
}

// commonAncestor returns the longest prefix containing both a and b.
// (Duplicated from prefixtree to keep the dependency arrow pointing
// prefixtree -> netutil.)
func commonAncestor(a, b Prefix) Prefix {
	maxLen := a.Len
	if b.Len < maxLen {
		maxLen = b.Len
	}
	l := uint8(bits.LeadingZeros32(uint32(a.Base) ^ uint32(b.Base)))
	if l > maxLen {
		l = maxLen
	}
	return Prefix{Base: a.Base, Len: l}.Canonicalize()
}

// buildRoot8 fills the stride-8 table: for every first octet, the best
// match among prefixes of length < 8 covering the whole /8, and the
// root of the subtree holding every prefix of length >= 8 in that /8.
func (t *LPM) buildRoot8() {
	for b := 0; b < 256; b++ {
		target := Prefix{Base: Addr(uint32(b) << 24), Len: 8}
		e := lpmRootEntry{start: -1, best: -1}
		n := int32(0)
		for n >= 0 {
			nd := &t.nodes[n]
			np := nd.prefix()
			if np.ContainsPrefix(target) {
				if nd.len >= 8 { // == target: the /8 itself
					e.start = n
					break
				}
				if nd.val >= 0 {
					e.best = nd.val
				}
				n = nd.kid[target.Bit(nd.len)]
				continue
			}
			if target.ContainsPrefix(np) {
				e.start = n // subtree strictly inside the /8
			}
			break // diverged (or found the subtree): stop
		}
		t.root8[b] = e
	}
}

// Len returns the number of node slots in the index (structural nodes
// included); 0 for an empty index.
func (t *LPM) Len() int { return len(t.nodes) }

// Patch derives the index for a new input slice ps from this one without
// re-sorting and re-inserting the whole set, for incremental reloads
// where only a small fraction of values changed. remap translates each
// old value to its new input index (-1: deleted or re-computed), and
// dirty lists the new input indices to (re)insert — exactly the
// PatchPlan contract of the inference delta.
//
// The patched index answers every lookup identically to BuildLPM(ps),
// with one exception it refuses to paper over: when either generation
// contains duplicate prefixes, the last-insert-wins resolution cannot be
// reproduced from the surviving structure (the shadowed value is gone),
// so Patch returns nil and the caller must rebuild. t is unmodified
// either way.
//
// Cost: one pass over the node array plus an insert per dirty prefix —
// deleted values leave their nodes in place as structural entries, so
// repeated patching grows the array by at most len(dirty) nodes per
// round until a full rebuild compacts it.
func (t *LPM) Patch(remap []int32, ps []Prefix, dirty []int32) *LPM {
	if t.dups || t.nodes == nil {
		return nil
	}
	nt := &LPM{nodes: append([]lpmNode(nil), t.nodes...)}
	for i := range nt.nodes {
		if v := nt.nodes[i].val; v >= 0 {
			if int(v) >= len(remap) {
				return nil
			}
			nv := remap[v]
			if int(nv) >= len(ps) {
				return nil // remapped value dangles past the new input
			}
			nt.nodes[i].val = nv
		}
	}
	for _, idx := range dirty {
		if idx < 0 || int(idx) >= len(ps) {
			return nil
		}
		nt.insert(ps[idx].Canonicalize(), idx)
		if nt.dups {
			// The insert overwrote a surviving value: the new
			// generation has duplicate prefixes, which only a full
			// sorted build resolves correctly.
			return nil
		}
	}
	nt.buildRoot8()
	return nt
}

// Lookup returns the input index of the longest inserted prefix
// containing a. It performs no allocation and touches only the flat
// node array: safe and fast under arbitrary concurrency.
func (t *LPM) Lookup(a Addr) (int32, bool) {
	if t.nodes == nil {
		return -1, false
	}
	e := &t.root8[uint32(a)>>24]
	best := e.best
	n := e.start
	for n >= 0 {
		nd := &t.nodes[n]
		if uint32(a)&nd.mask != nd.base {
			break
		}
		if nd.val >= 0 {
			best = nd.val
		}
		if nd.len >= 32 {
			break
		}
		n = nd.kid[uint32(a)>>(31-nd.len)&1]
	}
	return best, best >= 0
}

// LookupAddrs performs Lookup for every address in addrs, appending one
// input index per address (-1 where nothing matches) to dst and
// returning it. The node array and root table are hoisted out of the
// per-address loop, so a batch costs strictly less than len(addrs)
// single Lookups.
func (t *LPM) LookupAddrs(dst []int32, addrs []Addr) []int32 {
	if cap(dst)-len(dst) < len(addrs) {
		grown := make([]int32, len(dst), len(dst)+len(addrs))
		copy(grown, dst)
		dst = grown
	}
	nodes := t.nodes
	if nodes == nil {
		for range addrs {
			dst = append(dst, -1)
		}
		return dst
	}
	root8 := &t.root8
	for _, a := range addrs {
		e := &root8[uint32(a)>>24]
		best := e.best
		n := e.start
		for n >= 0 {
			nd := &nodes[n]
			if uint32(a)&nd.mask != nd.base {
				break
			}
			if nd.val >= 0 {
				best = nd.val
			}
			if nd.len >= 32 {
				break
			}
			n = nd.kid[uint32(a)>>(31-nd.len)&1]
		}
		dst = append(dst, best)
	}
	return dst
}

// LookupExact returns the input index of exactly p, allocation-free.
func (t *LPM) LookupExact(p Prefix) (int32, bool) {
	if t.nodes == nil {
		return -1, false
	}
	p = p.Canonicalize()
	n := int32(0)
	for n >= 0 {
		nd := &t.nodes[n]
		if uint32(p.Base)&nd.mask != nd.base || nd.len > p.Len {
			break
		}
		if nd.len == p.Len {
			if nd.base == uint32(p.Base) && nd.val >= 0 {
				return nd.val, true
			}
			break
		}
		n = nd.kid[uint32(p.Base)>>(31-nd.len)&1]
	}
	return -1, false
}
