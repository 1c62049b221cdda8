package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"ipleasing/internal/netutil"
	"ipleasing/internal/serve"
)

// Format v3: the relocatable, mmap-servable layout. Every serving
// index is a fixed-width, offset-addressed section that the serving
// layer wraps as a view over the raw bytes:
//
//	strtab, u32slab, strrefs, records
//	         the record layout, owned by internal/serve (records.go):
//	         encoded, validated and decoded there, stored here verbatim
//	lpm      netutil.AppendNative: nodes in the in-memory layout
//	byasn    u32 entries, u32 slabLen, entries×(u32 asn, u32 off,
//	         u32 cnt) sorted by ASN, then slabLen×i32 record indexes
//
// Every payload sits at an 8-aligned file offset, so on a
// little-endian host with the expected struct geometry the fixed-width
// arrays are aliased in place (unsafe.Slice / unsafe.String) — zero
// copies, near-zero allocations — and on any other host the same bytes
// decode through a copying fallback. Integrity is validate-then-trust:
// parseFile has already CRC-checked every section before openV3 runs,
// and openV3 bounds-checks every offset/length pair before any view is
// handed to the serving layer, so a damaged file fails at open and a
// valid one is never range-checked again at request time.

// hostLittleEndian reports whether u32 views can alias little-endian
// payload bytes directly.
var hostLittleEndian = func() bool {
	probe := uint32(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// ---- v3 encoding ----

// encodeASNView writes the ASN index's entry and slab arrays as they
// are: they are already sorted by ASN, with no empty runs.
func encodeASNView(v *serve.ASNView) []byte {
	entries, slab := v.Entries(), v.Slab()
	b := make([]byte, 0, 8+12*len(entries)+4*len(slab))
	b = appendU32(b, uint32(len(entries)))
	b = appendU32(b, uint32(len(slab)))
	for _, e := range entries {
		b = appendU32(b, e.ASN)
		b = appendU32(b, e.Off)
		b = appendU32(b, e.Cnt)
	}
	for _, idx := range slab {
		b = appendU32(b, uint32(idx))
	}
	return b
}

// ---- v3 decoding (view construction) ----

// asI32View returns b's first n little-endian int32s, aliasing b when
// the host layout permits and copying otherwise. The caller has
// already verified len(b) >= 4n.
func asI32View(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// asnEntryLayoutMatches gates aliasing []serve.ASNViewEntry over raw
// (asn, off, cnt) u32 triples.
var asnEntryLayoutMatches = hostLittleEndian &&
	unsafe.Sizeof(serve.ASNViewEntry{}) == 12 &&
	unsafe.Offsetof(serve.ASNViewEntry{}.ASN) == 0 &&
	unsafe.Offsetof(serve.ASNViewEntry{}.Off) == 4 &&
	unsafe.Offsetof(serve.ASNViewEntry{}.Cnt) == 8

func asASNEntryView(b []byte, n int) []serve.ASNViewEntry {
	if n == 0 {
		return nil
	}
	if asnEntryLayoutMatches && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(serve.ASNViewEntry{}) == 0 {
		return unsafe.Slice((*serve.ASNViewEntry)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]serve.ASNViewEntry, n)
	for i := range out {
		out[i] = serve.ASNViewEntry{
			ASN: binary.LittleEndian.Uint32(b[12*i:]),
			Off: binary.LittleEndian.Uint32(b[12*i+4:]),
			Cnt: binary.LittleEndian.Uint32(b[12*i+8:]),
		}
	}
	return out
}

// decodeByASNNative wraps the flat ASN index as a validated ASNView
// whose entry and slab arrays alias the payload.
func decodeByASNNative(payload []byte, arenaLen int) (*serve.ASNView, *CorruptError) {
	if len(payload) < 8 {
		return nil, corrupt("byasn", fmt.Sprintf("payload of %d bytes has no header", len(payload)), ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	slabLen := binary.LittleEndian.Uint32(payload[4:8])
	need := 8 + 12*uint64(n) + 4*uint64(slabLen)
	if uint64(len(payload)) != need {
		return nil, corrupt("byasn", fmt.Sprintf("payload is %d bytes, want %d for %d entries + %d indexes",
			len(payload), need, n, slabLen), ErrTruncated)
	}
	entries := asASNEntryView(payload[8:], int(n))
	slab := asI32View(payload[8+12*uint64(n):], int(slabLen))
	view, err := serve.NewASNView(entries, slab, arenaLen)
	if err != nil {
		return nil, corrupt("byasn", "index rejected", err)
	}
	return view, nil
}

// openV3 assembles a servable snapshot over already-CRC-verified v3
// section payloads. backing, when non-nil, owns the payload memory (a
// memory-mapped file); the restored snapshot takes over its creation
// reference and is labelled serve.LoadModeMmap. With a nil backing the
// views alias heap bytes, the GC owns the lifetime, and the label is
// serve.LoadModeHeap. Nothing is decoded per record: each index is
// validated once and wrapped as a view.
func openV3(payloads map[uint32][]byte, gen uint64, backing serve.Backing) (*serve.Snapshot, error) {
	meta, cerr := decodeMeta(payloads[secMeta])
	if cerr != nil {
		return nil, cerr
	}
	recs, err := serve.OpenRecords(serve.RecordSections{
		StrTab:  payloads[secStrTab],
		U32Slab: payloads[secU32Slab],
		StrRefs: payloads[secStrRefs],
		Records: payloads[secRecords],
	}, meta.arenaLen)
	if err != nil {
		return nil, recordsCorrupt(err)
	}
	lpm, err := netutil.LPMFromNative(payloads[secLPMNative], meta.arenaLen)
	if err != nil {
		return nil, corrupt("lpm", "index rejected", err)
	}
	asnView, cerr := decodeByASNNative(payloads[secByASNNative], meta.arenaLen)
	if cerr != nil {
		return nil, cerr
	}
	reports, cerr := decodeReports(payloads[secReports])
	if cerr != nil {
		return nil, cerr
	}
	snap, err := serve.Restore(serve.Restored{
		BuiltAt:          meta.builtAt,
		Generation:       gen,
		Provenance:       meta.provenance,
		Dir:              meta.dir,
		Strict:           meta.strict,
		Records:          recs,
		TotalBGPPrefixes: meta.totalBGP,
		RoutedSpace:      meta.routedSpace,
		LPM:              lpm,
		ByASNView:        asnView,
		Table1:           payloads[secTable1],
		Reports:          reports,
		SkippedAnalyses:  meta.skippedAnalyses,
		Backing:          backing,
	})
	if err != nil {
		return nil, corrupt("snapshot", "restore rejected", err)
	}
	return snap, nil
}

// recordsCorrupt reports an OpenRecords rejection against the section
// it names.
func recordsCorrupt(err error) *CorruptError {
	var re *serve.RecordError
	if !errors.As(err, &re) {
		return corrupt("records", "rejected", err)
	}
	var sentinel error
	if re.Truncated {
		sentinel = ErrTruncated
	}
	return corrupt(re.Section, re.Reason, sentinel)
}
