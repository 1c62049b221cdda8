package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ipleasing/internal/core"
)

// Backing is the lifecycle owner of memory a snapshot's indexes alias —
// in practice a memory-mapped snapshot file (snapstore.Mapped). The
// snapshot holds exactly one backing reference for as long as its own
// refcount is positive; other holders (the daemon's publish endpoint
// re-serving the mapped bytes) take their own references. When the last
// reference drops, Release unmaps — so the contract every view-backed
// reader relies on is: never touch a view without an acquired
// reference, and never fail to release one.
type Backing interface {
	// Acquire takes a reference. It returns false when the backing has
	// already been released for the last time — the memory is gone and
	// the caller must re-resolve whatever pointer led it here.
	Acquire() bool
	// Release drops a reference; the last drop frees the memory.
	Release()
}

// Snapshot load modes, as reported by Snapshot.LoadMode and /statusz.
const (
	// LoadModeBuilt marks a snapshot constructed in-process (NewSnapshot,
	// PatchSnapshot) — heap-owned, no backing lifecycle. No daemon
	// serves one: a publisher encodes what it built and serves the
	// generation file it published.
	LoadModeBuilt = "built"
	// LoadModeHeap marks a snapshot restored from snapshot bytes held on
	// the heap: a store generation on a platform (or filesystem) where
	// mapping failed, or bytes decoded in memory outside a daemon.
	LoadModeHeap = "heap"
	// LoadModeMmap marks a snapshot whose indexes are views over a
	// memory-mapped snapshot file (a restored snapshot with a Backing):
	// what every daemon serves where mapping works.
	LoadModeMmap = "mmap"
)

// ASNViewEntry is one ASN's slot in the flat ASN index: a run of Cnt
// arena indexes starting at Off in the shared slab.
type ASNViewEntry struct {
	ASN uint32
	Off uint32
	Cnt uint32
}

// ASNView is the snapshot's ASN index: sorted (ASN, offset, count)
// entries over one int32 slab of arena indexes, each run ascending. A
// built snapshot owns both arrays on the heap; a restored one aliases
// them from the snapshot bytes (possibly a memory-mapped file) — the
// view allocates nothing and is never mutated, so it can serve straight
// from the page cache. Lookup is a binary search; an ASN absent from
// the entries originates nothing.
type ASNView struct {
	entries []ASNViewEntry
	slab    []int32
}

// buildASNView indexes an inference arena by leaf origin. One counting
// pass sizes every ASN's run, the entries are sorted by ASN and laid
// out back to back, and a fill pass writes each inference's arena index
// into the runs of its origins — in arena order, so every run comes out
// ascending without a sort.
func buildASNView(infs []core.Inference) *ASNView {
	counts := make(map[uint32]uint32)
	total := 0
	for i := range infs {
		for _, asn := range infs[i].LeafOrigins {
			counts[asn]++
		}
		total += len(infs[i].LeafOrigins)
	}
	entries := make([]ASNViewEntry, 0, len(counts))
	for asn, n := range counts {
		entries = append(entries, ASNViewEntry{ASN: asn, Cnt: n})
	}
	slices.SortFunc(entries, func(a, b ASNViewEntry) int { return cmp.Compare(a.ASN, b.ASN) })
	off := uint32(0)
	for i := range entries {
		entries[i].Off = off
		counts[entries[i].ASN] = off // from here on: the run's fill cursor
		off += entries[i].Cnt
	}
	slab := make([]int32, total)
	for i := range infs {
		for _, asn := range infs[i].LeafOrigins {
			slab[counts[asn]] = int32(i)
			counts[asn]++
		}
	}
	return &ASNView{entries: entries, slab: slab}
}

// NewASNView validates and wraps a decoded ASN index. Entries must be
// strictly ascending by ASN (sorted, no duplicates), every run must lie
// inside the slab, and every slab value in a referenced run must index
// into an arena of arenaLen — enforced here once at open so lookups can
// trust the views.
func NewASNView(entries []ASNViewEntry, slab []int32, arenaLen int) (*ASNView, error) {
	for i := range entries {
		e := &entries[i]
		if i > 0 && entries[i-1].ASN >= e.ASN {
			return nil, fmt.Errorf("serve: ASN view entries out of order at %d (ASN %d after %d)",
				i, e.ASN, entries[i-1].ASN)
		}
		if e.Cnt == 0 {
			return nil, fmt.Errorf("serve: ASN view entry %d (ASN %d) has an empty run", i, e.ASN)
		}
		end := uint64(e.Off) + uint64(e.Cnt)
		if end > uint64(len(slab)) {
			return nil, fmt.Errorf("serve: ASN view entry %d (ASN %d) run [%d,%d) outside slab of %d",
				i, e.ASN, e.Off, end, len(slab))
		}
		for _, j := range slab[e.Off : e.Off+e.Cnt] {
			if j < 0 || int(j) >= arenaLen {
				return nil, fmt.Errorf("serve: ASN view entry for ASN %d holds arena index %d outside arena of %d",
					e.ASN, j, arenaLen)
			}
		}
	}
	return &ASNView{entries: entries, slab: slab}, nil
}

// Lookup returns the arena-index run for asn, nil if it originates
// nothing. The returned slice aliases the view; read-only.
func (v *ASNView) Lookup(asn uint32) []int32 {
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].ASN >= asn })
	if i >= len(v.entries) || v.entries[i].ASN != asn {
		return nil
	}
	e := &v.entries[i]
	return v.slab[e.Off : e.Off+e.Cnt]
}

// Entries returns the view's sorted entry array, and Slab the arena
// indexes they address — the two arrays the snapshot codec writes
// verbatim. Both alias the view; read-only.
func (v *ASNView) Entries() []ASNViewEntry { return v.entries }

// Slab returns the arena-index slab the entries address; see Entries.
func (v *ASNView) Slab() []int32 { return v.slab }
