// Package prefixtree implements a binary radix trie keyed by IPv4 CIDR
// prefixes. It backs two distinct structures in the pipeline:
//
//   - the per-RIR address allocation tree (paper §5.1 step 2), where the
//     root/leaf classification of registered address blocks drives the
//     leasing inference; and
//   - longest-match and least-specific covering-prefix lookup over BGP
//     routing tables (paper §5.1 step 4).
//
// The trie is a path-compressed binary trie: internal branching nodes are
// materialised only where inserted prefixes diverge, so memory stays
// proportional to the number of inserted prefixes.
package prefixtree

import (
	"math/bits"

	"ipleasing/internal/netutil"
)

// Tree is a radix trie mapping IPv4 prefixes to values of type V.
// The zero value is an empty tree ready for use. Tree is not safe for
// concurrent mutation; concurrent readers are safe once building is done.
type Tree[V any] struct {
	root *node[V]
	size int
	// arena is the tail of the current node allocation chunk. Nodes are
	// never freed individually (Delete only clears the set flag), so
	// carving them out of chunks turns one heap allocation per node into
	// one per arenaChunk nodes — the trie is the pipeline's dominant
	// allocation site (BGP tables, allocation trees, geo databases).
	arena []node[V]
}

const arenaChunk = 256

func (t *Tree[V]) newNode(p netutil.Prefix) *node[V] {
	if len(t.arena) == 0 {
		t.arena = make([]node[V], arenaChunk)
	}
	n := &t.arena[0]
	t.arena = t.arena[1:]
	n.prefix = p
	return n
}

type node[V any] struct {
	prefix netutil.Prefix
	lo, hi *node[V]
	value  V
	set    bool // true if this node holds an inserted prefix
}

// Len returns the number of prefixes stored in the tree.
func (t *Tree[V]) Len() int { return t.size }

// Insert stores value under p, replacing any existing value. It reports
// whether the prefix was newly inserted (false if it replaced an entry).
func (t *Tree[V]) Insert(p netutil.Prefix, value V) bool {
	_, added := t.insert(p, value, true)
	return added
}

// InsertIfAbsent stores value under p only if the prefix is not already
// present, in a single traversal (no Get-then-Insert double walk). It
// reports whether the prefix was newly inserted.
func (t *Tree[V]) InsertIfAbsent(p netutil.Prefix, value V) bool {
	_, added := t.insert(p, value, false)
	return added
}

// GetOrInsertFunc returns the value stored under p, inserting make()'s
// result first if the prefix is absent — one traversal either way. It
// reports whether the value was newly inserted. make is only called on
// insertion.
func (t *Tree[V]) GetOrInsertFunc(p netutil.Prefix, make func() V) (V, bool) {
	if n := t.lookupNode(p); n != nil && n.set {
		return n.value, false
	}
	n, added := t.insert(p, make(), false)
	return n.value, added
}

func (t *Tree[V]) insert(p netutil.Prefix, value V, replace bool) (*node[V], bool) {
	p = p.Canonicalize()
	if t.root == nil {
		t.root = t.newNode(netutil.Prefix{}) // /0 anchor
	}
	n := t.root
	for {
		if n.prefix == p {
			if n.set && !replace {
				return n, false
			}
			added := !n.set
			n.value, n.set = value, true
			if added {
				t.size++
			}
			return n, added
		}
		// p is strictly inside n.prefix here.
		child := &n.hi
		if p.Bit(n.prefix.Len) == 0 {
			child = &n.lo
		}
		c := *child
		if c == nil {
			nn := t.newNode(p)
			nn.value, nn.set = value, true
			*child = nn
			t.size++
			return nn, true
		}
		if c.prefix.ContainsPrefix(p) {
			n = c
			continue
		}
		if p.ContainsPrefix(c.prefix) {
			// Splice p above c.
			nn := t.newNode(p)
			nn.value, nn.set = value, true
			if c.prefix.Bit(p.Len) == 0 {
				nn.lo = c
			} else {
				nn.hi = c
			}
			*child = nn
			t.size++
			return nn, true
		}
		// Diverged: create the longest common ancestor branching node.
		anc := commonAncestor(p, c.prefix)
		branch := t.newNode(anc)
		nn := t.newNode(p)
		nn.value, nn.set = value, true
		if p.Bit(anc.Len) == 0 {
			branch.lo = nn
			branch.hi = c
		} else {
			branch.hi = nn
			branch.lo = c
		}
		*child = branch
		t.size++
		return nn, true
	}
}

// Inserter inserts a stream of prefixes into a tree, exploiting sorted
// order. It keeps the spine of nodes along the previous insertion path;
// when prefixes arrive in ascending (base, length) order — the order Walk
// emits and the dataset writers produce — the next insertion point is
// found by popping the spine instead of descending from the root, making
// bulk construction from a sorted file linear in the number of prefixes.
// Out-of-order prefixes fall back to a root descent, so results are
// identical to calling Insert for any input order.
type Inserter[V any] struct {
	t    *Tree[V]
	path []*node[V]
	last netutil.Prefix
	any  bool
}

// Inserter returns an Inserter feeding t.
func (t *Tree[V]) Inserter() *Inserter[V] {
	return &Inserter[V]{t: t, path: make([]*node[V], 0, 40)}
}

// Insert stores value under p, replacing any existing value, and reports
// whether the prefix was newly inserted — Tree.Insert semantics.
func (it *Inserter[V]) Insert(p netutil.Prefix, value V) bool {
	t := it.t
	p = p.Canonicalize()
	if t.root == nil {
		t.root = t.newNode(netutil.Prefix{}) // /0 anchor
	}
	if !it.any || p.Compare(it.last) <= 0 {
		it.path = it.path[:0] // out of order: restart from the root
	}
	it.last, it.any = p, true
	if len(it.path) == 0 {
		it.path = append(it.path, t.root)
	}
	// Pop to the deepest spine node still containing p. Any node that
	// contains a later prefix of a sorted stream also contains every
	// prefix between them, so ancestors of upcoming prefixes are never
	// popped and the descent below stays amortized constant.
	for len(it.path) > 1 && !it.path[len(it.path)-1].prefix.ContainsPrefix(p) {
		it.path = it.path[:len(it.path)-1]
	}
	n := it.path[len(it.path)-1]
	for {
		if n.prefix == p {
			added := !n.set
			n.value, n.set = value, true
			if added {
				t.size++
			}
			return added
		}
		// p is strictly inside n.prefix here.
		child := &n.hi
		if p.Bit(n.prefix.Len) == 0 {
			child = &n.lo
		}
		c := *child
		if c == nil {
			nn := t.newNode(p)
			nn.value, nn.set = value, true
			*child = nn
			t.size++
			it.path = append(it.path, nn)
			return true
		}
		if c.prefix.ContainsPrefix(p) {
			it.path = append(it.path, c)
			n = c
			continue
		}
		if p.ContainsPrefix(c.prefix) {
			// Splice p above c.
			nn := t.newNode(p)
			nn.value, nn.set = value, true
			if c.prefix.Bit(p.Len) == 0 {
				nn.lo = c
			} else {
				nn.hi = c
			}
			*child = nn
			t.size++
			it.path = append(it.path, nn)
			return true
		}
		// Diverged: create the longest common ancestor branching node.
		anc := commonAncestor(p, c.prefix)
		branch := t.newNode(anc)
		nn := t.newNode(p)
		nn.value, nn.set = value, true
		if p.Bit(anc.Len) == 0 {
			branch.lo = nn
			branch.hi = c
		} else {
			branch.hi = nn
			branch.lo = c
		}
		*child = branch
		t.size++
		it.path = append(it.path, branch, nn)
		return true
	}
}

// commonAncestor returns the longest prefix containing both a and b.
func commonAncestor(a, b netutil.Prefix) netutil.Prefix {
	maxLen := a.Len
	if b.Len < maxLen {
		maxLen = b.Len
	}
	l := uint8(bits.LeadingZeros32(uint32(a.Base) ^ uint32(b.Base)))
	if l > maxLen {
		l = maxLen
	}
	return netutil.Prefix{Base: a.Base, Len: l}.Canonicalize()
}

// Get returns the value stored under exactly p.
func (t *Tree[V]) Get(p netutil.Prefix) (V, bool) {
	var zero V
	n := t.lookupNode(p)
	if n == nil || !n.set {
		return zero, false
	}
	return n.value, true
}

func (t *Tree[V]) lookupNode(p netutil.Prefix) *node[V] {
	p = p.Canonicalize()
	n := t.root
	for n != nil {
		if n.prefix == p {
			return n
		}
		if !n.prefix.ContainsPrefix(p) {
			return nil
		}
		if p.Bit(n.prefix.Len) == 0 {
			n = n.lo
		} else {
			n = n.hi
		}
		if n != nil && !n.prefix.ContainsPrefix(p) && !p.ContainsPrefix(n.prefix) {
			return nil
		}
	}
	return nil
}

// LongestMatch returns the most-specific inserted prefix that contains p
// (which may be p itself).
func (t *Tree[V]) LongestMatch(p netutil.Prefix) (netutil.Prefix, V, bool) {
	var (
		best    *node[V]
		zero    V
		current = t.root
	)
	p = p.Canonicalize()
	for current != nil && current.prefix.ContainsPrefix(p) {
		if current.set {
			best = current
		}
		if current.prefix.Len >= p.Len {
			break
		}
		if p.Bit(current.prefix.Len) == 0 {
			current = current.lo
		} else {
			current = current.hi
		}
	}
	if best == nil {
		return netutil.Prefix{}, zero, false
	}
	return best.prefix, best.value, true
}

// ShortestMatch returns the least-specific inserted prefix that contains p
// (the covering supernet closest to the root; may be p itself). This is the
// lookup the paper uses for root prefixes that were aggregated in BGP.
func (t *Tree[V]) ShortestMatch(p netutil.Prefix) (netutil.Prefix, V, bool) {
	var zero V
	p = p.Canonicalize()
	current := t.root
	for current != nil && current.prefix.ContainsPrefix(p) {
		if current.set {
			return current.prefix, current.value, true
		}
		if current.prefix.Len >= p.Len {
			break
		}
		if p.Bit(current.prefix.Len) == 0 {
			current = current.lo
		} else {
			current = current.hi
		}
	}
	return netutil.Prefix{}, zero, false
}

// Delete removes p from the tree, reporting whether it was present.
// Structural nodes are left in place (they are cheap and deletion is rare
// in this pipeline).
func (t *Tree[V]) Delete(p netutil.Prefix) bool {
	n := t.lookupNode(p)
	if n == nil || !n.set {
		return false
	}
	var zero V
	n.set, n.value = false, zero
	t.size--
	return true
}

// Entry is a stored (prefix, value) pair together with its position in the
// containment hierarchy of inserted prefixes.
type Entry[V any] struct {
	Prefix netutil.Prefix
	Value  V
	// Depth is the number of inserted strict ancestors of Prefix.
	// Depth 0 means Prefix is a root of the allocation forest.
	Depth int
	// HasChildren reports whether any inserted prefix lies strictly
	// inside Prefix. Leaf entries have HasChildren == false.
	HasChildren bool
}

// Walk visits every inserted prefix in ascending Compare order (supernets
// before their subnets), computing hierarchy metadata. If fn returns false
// the walk stops.
func (t *Tree[V]) Walk(fn func(e Entry[V]) bool) {
	t.walk(t.root, 0, fn)
}

func (t *Tree[V]) walk(n *node[V], depth int, fn func(e Entry[V]) bool) bool {
	if n == nil {
		return true
	}
	childDepth := depth
	if n.set {
		e := Entry[V]{
			Prefix:      n.prefix,
			Value:       n.value,
			Depth:       depth,
			HasChildren: hasSetDescendant(n.lo) || hasSetDescendant(n.hi),
		}
		if !fn(e) {
			return false
		}
		childDepth = depth + 1
	}
	if !t.walk(n.lo, childDepth, fn) {
		return false
	}
	return t.walk(n.hi, childDepth, fn)
}

func hasSetDescendant[V any](n *node[V]) bool {
	for n != nil {
		if n.set {
			return true
		}
		if hasSetDescendant[V](n.lo) {
			return true
		}
		n = n.hi
	}
	return false
}

// Iter is an explicit-stack iterator over a tree's inserted prefixes in
// Walk order. It exists for merge co-scans over two trees (the BGP
// table diff), where the callback-based Walk would force at least one
// side to be materialised into an entry slice first. The zero value is
// an exhausted iterator; it does not compute the Entry hierarchy
// metadata (Depth, HasChildren).
type Iter[V any] struct {
	stack []*node[V]
}

// Iter returns an iterator positioned before the first inserted prefix.
// The tree must not be mutated while the iterator is in use.
func (t *Tree[V]) Iter() Iter[V] {
	it := Iter[V]{}
	if t.root != nil {
		it.stack = append(make([]*node[V], 0, 40), t.root)
	}
	return it
}

// Next returns the next inserted prefix and its value, or ok == false
// when the iterator is exhausted.
func (it *Iter[V]) Next() (p netutil.Prefix, v V, ok bool) {
	for len(it.stack) > 0 {
		n := it.stack[len(it.stack)-1]
		it.stack = it.stack[:len(it.stack)-1]
		// Children are pushed hi before lo so the lo subtree pops first —
		// the same pre-order (node, lo, hi) Walk uses.
		if n.hi != nil {
			it.stack = append(it.stack, n.hi)
		}
		if n.lo != nil {
			it.stack = append(it.stack, n.lo)
		}
		if n.set {
			return n.prefix, n.value, true
		}
	}
	return p, v, false
}

// Entries returns all inserted entries in Walk order.
func (t *Tree[V]) Entries() []Entry[V] {
	out := make([]Entry[V], 0, t.size)
	t.Walk(func(e Entry[V]) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Roots returns the inserted prefixes that have no inserted ancestor —
// the roots of the allocation forest (paper §5.1: portable blocks).
func (t *Tree[V]) Roots() []Entry[V] {
	var out []Entry[V]
	t.Walk(func(e Entry[V]) bool {
		if e.Depth == 0 {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Leaves returns the inserted prefixes with no inserted descendants —
// the leaves of the allocation forest (paper §5.1: the most-specific
// sub-allocations, candidates for lease classification).
func (t *Tree[V]) Leaves() []Entry[V] {
	var out []Entry[V]
	t.Walk(func(e Entry[V]) bool {
		if !e.HasChildren {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Ancestors returns every inserted strict ancestor of p, outermost first.
func (t *Tree[V]) Ancestors(p netutil.Prefix) []Entry[V] {
	var out []Entry[V]
	p = p.Canonicalize()
	current := t.root
	depth := 0
	for current != nil && current.prefix.ContainsPrefix(p) {
		if current.set && current.prefix != p {
			out = append(out, Entry[V]{Prefix: current.prefix, Value: current.value, Depth: depth})
			depth++
		}
		if current.prefix.Len >= p.Len {
			break
		}
		if p.Bit(current.prefix.Len) == 0 {
			current = current.lo
		} else {
			current = current.hi
		}
	}
	return out
}

// Covered returns every inserted prefix contained in p (including p
// itself if inserted), in Walk order.
func (t *Tree[V]) Covered(p netutil.Prefix) []Entry[V] {
	var out []Entry[V]
	p = p.Canonicalize()
	// Descend to the subtree rooted at the node covering p, then walk it.
	n := t.root
	for n != nil && !p.ContainsPrefix(n.prefix) {
		if !n.prefix.ContainsPrefix(p) {
			return nil
		}
		if p.Bit(n.prefix.Len) == 0 {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	if n == nil {
		return nil
	}
	t.walk(n, 0, func(e Entry[V]) bool {
		if p.ContainsPrefix(e.Prefix) {
			out = append(out, e)
		}
		return true
	})
	return out
}
