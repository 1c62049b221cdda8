package netutil

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// Native LPM codec, the index's only byte encoding: the snapshot format
// stores the node array in the in-memory lpmNode layout (little-endian,
// 24-byte records) so a memory-mapped snapshot can serve lookups
// directly from the file's page cache — no per-node decode, no node
// allocation. AppendNative
// always writes the portable byte-by-byte encoding; LPMFromNative
// aliases the bytes as []lpmNode when the platform layout matches
// (little-endian, asserted struct geometry) and falls back to a
// copying decode otherwise, so the format itself stays portable.

// lpmNativeNodeSize is the on-disk size of one native node record:
// u32 base, u32 mask, i32 val, i32 kid0, i32 kid1, u8 len, 3 zero pad.
// It equals unsafe.Sizeof(lpmNode{}) on every supported platform;
// nativeLayoutMatches re-checks at runtime before any aliasing.
const lpmNativeNodeSize = 24

// lpmNativeHeaderSize precedes the records: u32 node count, u8 dups,
// 3 zero pad — 8 bytes, so records start 8-aligned when the encoding
// itself is placed at an 8-aligned offset.
const lpmNativeHeaderSize = 8

// nativeLayoutMatches reports whether []lpmNode can alias the native
// encoding directly: little-endian integers and the exact field
// geometry AppendNative writes. Checked at runtime (not build-tagged)
// so an exotic platform degrades to the copying decode instead of
// serving garbage.
func nativeLayoutMatches() bool {
	probe := uint32(1)
	littleEndian := *(*byte)(unsafe.Pointer(&probe)) == 1
	return littleEndian &&
		unsafe.Sizeof(lpmNode{}) == lpmNativeNodeSize &&
		unsafe.Offsetof(lpmNode{}.base) == 0 &&
		unsafe.Offsetof(lpmNode{}.mask) == 4 &&
		unsafe.Offsetof(lpmNode{}.val) == 8 &&
		unsafe.Offsetof(lpmNode{}.kid) == 12 &&
		unsafe.Offsetof(lpmNode{}.len) == 20
}

// AppendNative appends the index's native binary encoding to dst and
// returns the extended slice. It carries the derived mask and pads
// each record to the in-memory node size, so a reader on a matching
// platform can alias the records without any per-node work. Layout
// (all little-endian):
//
//	u32 node count
//	u8  dups, 3 zero pad
//	node count × (u32 base, u32 mask, i32 val, i32 kid0, i32 kid1, u8 len, 3 zero pad)
func (t *LPM) AppendNative(dst []byte) []byte {
	dst = slices.Grow(dst, lpmNativeHeaderSize+len(t.nodes)*lpmNativeNodeSize)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.nodes)))
	var dups byte
	if t.dups {
		dups = 1
	}
	dst = append(dst, dups, 0, 0, 0)
	for i := range t.nodes {
		nd := &t.nodes[i]
		dst = binary.LittleEndian.AppendUint32(dst, nd.base)
		dst = binary.LittleEndian.AppendUint32(dst, nd.mask)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(nd.val))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(nd.kid[0]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(nd.kid[1]))
		dst = append(dst, nd.len, 0, 0, 0)
	}
	return dst
}

// LPMFromNative builds an index over an AppendNative encoding,
// aliasing data's records as the node array when the platform layout
// permits — the caller must keep data immutable and alive for the
// index's lifetime (the mmap refcount owns that in the snapshot path).
// maxVal bounds the value space: every stored val must be in
// [-1, maxVal), the length of the input slice the index was built
// over, so the index can never hand out a value past the arena it
// serves. Every record
// is validated before the index is returned — lengths, masks, host
// bits, value range, child links (in range, strictly longer than
// their parent, inside it and on the branch the link names), the /0
// anchor, zeroed padding, and that a descent from the anchor reaches
// every node exactly once — so a damaged file fails here rather than
// corrupting a descent later. The stride-8 root table is always
// rebuilt on the heap; only the node array aliases the input.
func LPMFromNative(data []byte, maxVal int) (*LPM, error) {
	if len(data) < lpmNativeHeaderSize {
		return nil, fmt.Errorf("netutil: native LPM encoding truncated (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	dups := data[4]
	if dups > 1 {
		return nil, fmt.Errorf("netutil: native LPM dups flag %d out of range", dups)
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("netutil: native LPM header padding not zero")
	}
	rest := data[lpmNativeHeaderSize:]
	if len(rest) != n*lpmNativeNodeSize {
		return nil, fmt.Errorf("netutil: native LPM encoding is %d bytes, want %d for %d nodes",
			len(rest), n*lpmNativeNodeSize, n)
	}
	t := &LPM{dups: dups == 1}
	if n == 0 {
		for b := range t.root8 {
			t.root8[b] = lpmRootEntry{start: -1, best: -1}
		}
		return t, nil
	}
	aligned := uintptr(unsafe.Pointer(&rest[0]))%unsafe.Alignof(lpmNode{}) == 0
	if nativeLayoutMatches() && aligned {
		t.nodes = unsafe.Slice((*lpmNode)(unsafe.Pointer(&rest[0])), n)
	} else {
		t.nodes = make([]lpmNode, n)
		for i := 0; i < n; i++ {
			off := i * lpmNativeNodeSize
			nd := &t.nodes[i]
			nd.base = binary.LittleEndian.Uint32(rest[off:])
			nd.mask = binary.LittleEndian.Uint32(rest[off+4:])
			nd.val = int32(binary.LittleEndian.Uint32(rest[off+8:]))
			nd.kid[0] = int32(binary.LittleEndian.Uint32(rest[off+12:]))
			nd.kid[1] = int32(binary.LittleEndian.Uint32(rest[off+16:]))
			nd.len = rest[off+20]
		}
	}
	// One validation pass per cold start over every node: load the
	// trailing len+padding word whole (a single u32 compare covers the
	// three pad bytes) and keep the per-node checks branch-cheap.
	for i := 0; i < n; i++ {
		nd := &t.nodes[i]
		tail := binary.LittleEndian.Uint32(rest[i*lpmNativeNodeSize+20:])
		if tail>>8 != 0 {
			return nil, fmt.Errorf("netutil: native LPM node %d padding not zero", i)
		}
		if nd.len > 32 {
			return nil, fmt.Errorf("netutil: native LPM node %d has prefix length %d", i, nd.len)
		}
		if nd.mask != maskOf(nd.len) {
			return nil, fmt.Errorf("netutil: native LPM node %d mask %#x inconsistent with length %d", i, nd.mask, nd.len)
		}
		if nd.base&nd.mask != nd.base {
			return nil, fmt.Errorf("netutil: native LPM node %d has host bits set", i)
		}
		if nd.val < -1 || int(nd.val) >= maxVal {
			return nil, fmt.Errorf("netutil: native LPM node %d value %d outside [-1, %d)", i, nd.val, maxVal)
		}
		for b, k := range nd.kid {
			if k < -1 || int(k) >= n {
				return nil, fmt.Errorf("netutil: native LPM node %d child index %d out of range", i, k)
			}
			if k < 0 {
				continue
			}
			// A child strictly longer than its parent keeps every
			// descent acyclic: at most 33 steps, whatever the links.
			kid := &t.nodes[k]
			if kid.len <= nd.len {
				return nil, fmt.Errorf("netutil: native LPM node %d child %d is not longer than its parent", i, k)
			}
			// The child must lie inside its parent, on the side of the
			// parent's next bit that its link names, or a descent
			// following that bit would miss it.
			if kid.base&nd.mask != nd.base || int(kid.base>>(31-nd.len)&1) != b {
				return nil, fmt.Errorf("netutil: native LPM node %d child %d is not on branch %d of its parent", i, k, b)
			}
		}
	}
	if t.nodes[0].len != 0 || t.nodes[0].base != 0 {
		return nil, fmt.Errorf("netutil: native LPM root node is %v, want the /0 anchor", t.nodes[0].prefix())
	}
	if reached := t.reachOnce(); reached != n {
		return nil, fmt.Errorf("netutil: native LPM descent from the anchor reaches %d node visits, want each of %d nodes once", reached, n)
	}
	t.buildRoot8()
	return t, nil
}

// reachOnce counts the node visits of a walk over every link from the
// /0 anchor, stopping once the count passes len(t.nodes). With the
// per-link checks (each child strictly longer than its parent, inside
// it, on the named branch) the path to any prefix is fixed by the
// prefix's own bits, so a count of exactly len(t.nodes) means the links
// form one tree over every node: none is shared, none orphaned, and no
// link skips a node its descent should visit. Children are strictly
// longer, so the walk is at most 33 levels deep and its stack fits in a
// fixed array: the check allocates nothing.
func (t *LPM) reachOnce() int {
	var stack [2 * 34]int32
	stack[0] = 0
	sp, visits := 1, 0
	for sp > 0 && visits <= len(t.nodes) {
		sp--
		nd := &t.nodes[stack[sp]]
		visits++
		for _, k := range nd.kid {
			if k >= 0 {
				if sp == len(stack) {
					return -1
				}
				stack[sp] = k
				sp++
			}
		}
	}
	return visits
}
