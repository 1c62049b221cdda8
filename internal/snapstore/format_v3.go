package snapstore

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/serve"
	"ipleasing/internal/whois"
)

// Format v3: the relocatable, mmap-servable layout. The arena, LPM and
// ASN index are fixed-width, offset-addressed sections that the serving
// layer wraps as views over the raw bytes:
//
//	strtab   u32 count, u32 blobLen, count×(u32 off, u32 len), blob
//	u32slab  u32 count, 4 zero pad, count×u32 — every RootASNs/
//	         RootOrigins/LeafOrigins run, concatenated
//	strrefs  u32 count, 4 zero pad, count×u32 string IDs — every
//	         Facilitators run, concatenated
//	records  u32 count, 4 zero pad, count×56-byte inference records
//	         addressing the slabs by (offset, length)
//	lpm      netutil.AppendNative: nodes in the in-memory layout
//	byasn    u32 entries, u32 slabLen, entries×(u32 asn, u32 off,
//	         u32 cnt) sorted by ASN, then slabLen×i32 arena indexes
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

// recordSize is one fixed-width arena record: 13 u32 fields (prefix
// base, root base, 3 string IDs, 4 slab runs as off/len pairs) plus
// registry, category, prefix length, root length bytes.
const recordSize = 56

// hostLittleEndian reports whether u32 views can alias little-endian
// payload bytes directly.
var hostLittleEndian = func() bool {
	probe := uint32(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// ---- v3 encoding ----

// encodeV3Arena lays the flat inference arena out as the four
// relocatable sections. String IDs are assigned in first-appearance
// order and deduplicated, so the encoding is deterministic for a given
// arena and the decoder can intern each distinct string exactly once.
func encodeV3Arena(infs []core.Inference) (strtab, u32slab, strrefs, records []byte) {
	ids := make(map[string]uint32)
	var strs []string
	blobLen := 0
	strID := func(s string) uint32 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint32(len(strs))
		ids[s] = id
		strs = append(strs, s)
		blobLen += len(s)
		return id
	}
	var slab []uint32
	var refs []uint32
	run := func(vs []uint32) (off, cnt uint32) {
		off = uint32(len(slab))
		slab = append(slab, vs...)
		return off, uint32(len(vs))
	}

	records = make([]byte, 0, 8+recordSize*len(infs))
	records = appendU32(records, uint32(len(infs)))
	records = append(records, 0, 0, 0, 0)
	for i := range infs {
		inf := &infs[i]
		raOff, raCnt := run(inf.RootASNs)
		roOff, roCnt := run(inf.RootOrigins)
		loOff, loCnt := run(inf.LeafOrigins)
		facOff := uint32(len(refs))
		for _, f := range inf.Facilitators {
			refs = append(refs, strID(f))
		}
		records = appendU32(records, uint32(inf.Prefix.Base))
		records = appendU32(records, uint32(inf.Root.Base))
		records = appendU32(records, strID(inf.HolderOrg))
		records = appendU32(records, strID(inf.NetName))
		records = appendU32(records, strID(inf.Country))
		records = appendU32(records, raOff)
		records = appendU32(records, raCnt)
		records = appendU32(records, roOff)
		records = appendU32(records, roCnt)
		records = appendU32(records, loOff)
		records = appendU32(records, loCnt)
		records = appendU32(records, facOff)
		records = appendU32(records, uint32(len(inf.Facilitators)))
		records = append(records, byte(inf.Registry), byte(inf.Category), inf.Prefix.Len, inf.Root.Len)
	}

	strtab = make([]byte, 0, 8+8*len(strs)+blobLen)
	strtab = appendU32(strtab, uint32(len(strs)))
	strtab = appendU32(strtab, uint32(blobLen))
	off := 0
	for _, s := range strs {
		strtab = appendU32(strtab, uint32(off))
		strtab = appendU32(strtab, uint32(len(s)))
		off += len(s)
	}
	for _, s := range strs {
		strtab = append(strtab, s...)
	}

	u32slab = make([]byte, 0, 8+4*len(slab))
	u32slab = appendU32(u32slab, uint32(len(slab)))
	u32slab = append(u32slab, 0, 0, 0, 0)
	for _, v := range slab {
		u32slab = appendU32(u32slab, v)
	}

	strrefs = make([]byte, 0, 8+4*len(refs))
	strrefs = appendU32(strrefs, uint32(len(refs)))
	strrefs = append(strrefs, 0, 0, 0, 0)
	for _, v := range refs {
		strrefs = appendU32(strrefs, v)
	}
	return strtab, u32slab, strrefs, records
}

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

// asU32View returns b's first n little-endian u32s, aliasing b when
// the host layout permits and copying otherwise. The caller has
// already verified len(b) >= 4n.
func asU32View(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// asI32View is asU32View for int32 (same bit layout).
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

// strTable is a view over the interned string table: 2n off/len u32
// pairs plus the blob they address, both aliasing the payload. Unlike
// a materialized []string it allocates nothing per string — resolving
// an ID is two loads and an unsafe.String header, done lazily at the
// record that references it.
type strTable struct {
	entries []uint32 // n (off, len) pairs, interleaved
	blob    []byte
	n       uint32
}

// str resolves an already-range-checked string ID (callers compare
// against t.n first; decodeStrTab proved every entry's run is inside
// the blob, so no re-validation happens here).
func (t *strTable) str(id uint32) string {
	off, ln := t.entries[2*id], t.entries[2*id+1]
	if ln == 0 {
		return ""
	}
	return unsafe.String(&t.blob[off], int(ln))
}

// decodeStrTab validates the interned string table and wraps it as a
// strTable view. Every entry's (off, len) run is bounds-checked here,
// eagerly, so a damaged table fails at open even if no record ever
// resolves the rotten entry — str can then trust any in-range ID.
func decodeStrTab(payload []byte) (strTable, *CorruptError) {
	if len(payload) < 8 {
		return strTable{}, corrupt("strtab", fmt.Sprintf("payload of %d bytes has no header", len(payload)), ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	blobLen := binary.LittleEndian.Uint32(payload[4:8])
	need := 8 + 8*uint64(n) + uint64(blobLen)
	if uint64(len(payload)) != need {
		return strTable{}, corrupt("strtab", fmt.Sprintf("payload is %d bytes, want %d for %d strings + %d blob",
			len(payload), need, n, blobLen), ErrTruncated)
	}
	entries := asU32View(payload[8:8+8*n], int(2*n))
	blob := payload[8+8*n:]
	for i := uint32(0); i < n; i++ {
		off, ln := entries[2*i], entries[2*i+1]
		if uint64(off)+uint64(ln) > uint64(blobLen) {
			return strTable{}, corrupt("strtab", fmt.Sprintf("string %d run [%d,%d) outside blob of %d", i, off, uint64(off)+uint64(ln), blobLen), nil)
		}
	}
	return strTable{entries: entries, blob: blob, n: n}, nil
}

// decodeFlatU32s parses a "u32 count, 4 pad, count×u32" section.
func decodeFlatU32s(payload []byte, sec string) ([]uint32, *CorruptError) {
	if len(payload) < 8 {
		return nil, corrupt(sec, fmt.Sprintf("payload of %d bytes has no header", len(payload)), ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	if uint64(len(payload)) != 8+4*uint64(n) {
		return nil, corrupt(sec, fmt.Sprintf("payload is %d bytes, want %d for %d elements", len(payload), 8+4*uint64(n), n), ErrTruncated)
	}
	return asU32View(payload[8:], int(n)), nil
}

// recordsCount header-validates the records section and returns the
// record count. Split from the fill so openV3 can overlap the arena
// allocation (zeroing megabytes) with the string-table and slab
// decodes it does not depend on.
func recordsCount(payload []byte, arenaLen int) (uint32, *CorruptError) {
	if len(payload) < 8 {
		return 0, corrupt("records", fmt.Sprintf("payload of %d bytes has no header", len(payload)), ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	if uint64(len(payload)) != 8+recordSize*uint64(n) {
		return 0, corrupt("records", fmt.Sprintf("payload is %d bytes, want %d for %d records", len(payload), 8+recordSize*uint64(n), n), ErrTruncated)
	}
	if int(n) != arenaLen {
		return 0, corrupt("records", fmt.Sprintf("arena holds %d inferences, meta says %d", n, arenaLen), nil)
	}
	return n, nil
}

// decodeRecordsInto fills a pre-allocated arena from the records
// payload, sharding the fill across a few goroutines: records are
// fixed-width and independent, each worker owns a contiguous chunk of
// infs, and every input is immutable, so the split is race-free by
// construction. The first error by record order wins, keeping rejects
// deterministic regardless of worker interleaving. The returned region
// runs are the fill's by-product tally — workers' chunk runs stitched
// back together at the seams — so the caller can build a core.Result
// without a second pass over the arena.
func decodeRecordsInto(infs []core.Inference, payload []byte, tbl *strTable, slab []uint32, refs []uint32) ([]core.RegionRun, *CorruptError) {
	// Facilitator runs resolve through one shared string slab so the
	// per-record slices are allocation-free sub-slices.
	facStrs := make([]string, len(refs))
	for i, id := range refs {
		if id >= tbl.n {
			return nil, corrupt("strrefs", fmt.Sprintf("reference %d names string %d outside table of %d", i, id, tbl.n), nil)
		}
		facStrs[i] = tbl.str(id)
	}
	n := uint32(len(infs))
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	const minChunk = 2048
	if int(n) < 2*minChunk || workers < 2 {
		return fillRecords(infs, 0, n, payload, tbl, slab, facStrs)
	}
	chunk := (n + uint32(workers) - 1) / uint32(workers)
	chunkRuns := make([][]core.RegionRun, workers)
	errs := make([]*CorruptError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := uint32(w) * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, lo, hi uint32) {
			defer wg.Done()
			chunkRuns[w], errs[w] = fillRecords(infs, lo, hi, payload, tbl, slab, facStrs)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, cerr := range errs {
		if cerr != nil {
			return nil, cerr
		}
	}
	// Stitch: a registry run split across a chunk boundary comes back as
	// two adjacent runs with the same registry — merge them so the result
	// is identical to a single-worker pass.
	var runs []core.RegionRun
	for _, rs := range chunkRuns {
		for _, r := range rs {
			if len(runs) > 0 {
				last := &runs[len(runs)-1]
				if last.Registry == r.Registry && last.Hi == r.Lo {
					last.Hi = r.Hi
					for c := range last.Counts {
						last.Counts[c] += r.Counts[c]
					}
					continue
				}
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// fillRecords decodes records [lo, hi) into their arena slots,
// tallying registry runs and category counts as it goes (the record
// walk the Result reconstruction would otherwise repeat). The loop
// runs once per record on every cold start, so it is written for the
// optimizer: a capped 56-byte reslice hoists all the field bounds
// checks, string and slab lookups are inlined rather than routed
// through closures, and the slow corrupt-formatting paths live in
// noinline helpers so the hot body stays small. Registry bytes are
// structurally validated downstream by core.ResultFromRuns (known
// registry, canonical order); category bytes index the counts array,
// so they are rejected here.
func fillRecords(infs []core.Inference, lo, hi uint32, payload []byte, tbl *strTable, slab []uint32, facStrs []string) ([]core.RegionRun, *CorruptError) {
	nStr, nSlab, nFac := tbl.n, uint64(len(slab)), uint64(len(facStrs))
	entries, blob := tbl.entries, tbl.blob
	runs := make([]core.RegionRun, 0, 8)
	var cur core.RegionRun
	curReg := -1
	cursor := payload[8+recordSize*uint64(lo):]
	for i := lo; i < hi; i++ {
		rec := cursor[:recordSize:recordSize]
		cursor = cursor[recordSize:]
		inf := &infs[i]
		inf.Prefix = netutil.Prefix{Base: netutil.Addr(binary.LittleEndian.Uint32(rec[0:])), Len: rec[54]}
		inf.Root = netutil.Prefix{Base: netutil.Addr(binary.LittleEndian.Uint32(rec[4:])), Len: rec[55]}
		reg, cat := rec[52], rec[53]
		inf.Registry = whois.Registry(reg)
		inf.Category = core.Category(cat)
		if int(cat) >= core.NumCategories {
			return nil, corruptRecordCat(i, cat)
		}
		if int(reg) != curReg {
			if curReg >= 0 {
				cur.Hi = int(i)
				runs = append(runs, cur)
			}
			curReg = int(reg)
			cur = core.RegionRun{Registry: whois.Registry(reg), Lo: int(i)}
		}
		cur.Counts[cat]++
		holder := binary.LittleEndian.Uint32(rec[8:])
		netname := binary.LittleEndian.Uint32(rec[12:])
		country := binary.LittleEndian.Uint32(rec[16:])
		if holder >= nStr || netname >= nStr || country >= nStr {
			return nil, corruptRecordStr(i, holder, netname, country, nStr)
		}
		inf.HolderOrg = internStr(entries, blob, holder)
		inf.NetName = internStr(entries, blob, netname)
		inf.Country = internStr(entries, blob, country)
		aOff := uint64(binary.LittleEndian.Uint32(rec[20:]))
		aCnt := uint64(binary.LittleEndian.Uint32(rec[24:]))
		rOff := uint64(binary.LittleEndian.Uint32(rec[28:]))
		rCnt := uint64(binary.LittleEndian.Uint32(rec[32:]))
		lOff := uint64(binary.LittleEndian.Uint32(rec[36:]))
		lCnt := uint64(binary.LittleEndian.Uint32(rec[40:]))
		if aOff+aCnt > nSlab || rOff+rCnt > nSlab || lOff+lCnt > nSlab {
			return nil, corruptRecordRun(i, nSlab, aOff, aCnt, rOff, rCnt, lOff, lCnt)
		}
		if aCnt > 0 {
			inf.RootASNs = slab[aOff : aOff+aCnt : aOff+aCnt]
		}
		if rCnt > 0 {
			inf.RootOrigins = slab[rOff : rOff+rCnt : rOff+rCnt]
		}
		if lCnt > 0 {
			inf.LeafOrigins = slab[lOff : lOff+lCnt : lOff+lCnt]
		}
		facOff := uint64(binary.LittleEndian.Uint32(rec[44:]))
		facCnt := uint64(binary.LittleEndian.Uint32(rec[48:]))
		if facCnt > 0 {
			if facOff+facCnt > nFac {
				return nil, corrupt("records", fmt.Sprintf("record %d facilitator run [%d,%d) outside refs of %d",
					i, facOff, facOff+facCnt, nFac), nil)
			}
			inf.Facilitators = facStrs[facOff : facOff+facCnt : facOff+facCnt]
		}
		if !inf.Prefix.Canonical() || !inf.Root.Canonical() {
			return nil, corrupt("records", fmt.Sprintf("record %d has a non-canonical prefix", i), nil)
		}
	}
	if curReg >= 0 {
		cur.Hi = int(hi)
		runs = append(runs, cur)
	}
	return runs, nil
}

// internStr is strTable.str over pre-split fields, kept tiny so the
// fill loop inlines it: the caller has range-checked id, decodeStrTab
// has range-checked the entry's run.
func internStr(entries []uint32, blob []byte, id uint32) string {
	off, ln := entries[2*id], entries[2*id+1]
	if ln == 0 {
		return ""
	}
	return unsafe.String(&blob[off], int(ln))
}

//go:noinline
func corruptRecordCat(i uint32, cat byte) *CorruptError {
	return corrupt("records", fmt.Sprintf("record %d has category %d out of range", i, cat), nil)
}

//go:noinline
func corruptRecordStr(i, holder, netname, country, nStr uint32) *CorruptError {
	for _, f := range []struct {
		name string
		id   uint32
	}{{"holder", holder}, {"netname", netname}, {"country", country}} {
		if f.id >= nStr {
			return corrupt("records", fmt.Sprintf("record %d %s names string %d outside table of %d", i, f.name, f.id, nStr), nil)
		}
	}
	return corrupt("records", fmt.Sprintf("record %d names a string outside the table", i), nil)
}

//go:noinline
func corruptRecordRun(i uint32, nSlab, aOff, aCnt, rOff, rCnt, lOff, lCnt uint64) *CorruptError {
	for _, f := range []struct {
		name     string
		off, cnt uint64
	}{{"root-ASN", aOff, aCnt}, {"root-origin", rOff, rCnt}, {"leaf-origin", lOff, lCnt}} {
		if f.off+f.cnt > nSlab {
			return corrupt("records", fmt.Sprintf("record %d %s run [%d,%d) outside slab of %d",
				i, f.name, f.off, f.off+f.cnt, nSlab), nil)
		}
	}
	return corrupt("records", fmt.Sprintf("record %d has a run outside the slab", i), nil)
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
// serve.LoadModeHeap.
func openV3(payloads map[uint32][]byte, gen uint64, backing serve.Backing) (*serve.Snapshot, error) {
	meta, cerr := decodeMeta(payloads[secMeta])
	if cerr != nil {
		return nil, cerr
	}
	// The arena chain (strings → slabs → records → result) and the index
	// chain (LPM, byASN, reports) share nothing but meta.arenaLen, so a
	// cold start runs them concurrently — restore latency is the longer
	// chain, not the sum. Both goroutines only read distinct payloads
	// and write distinct locals; the WaitGroup is the sole synchronizer.
	var (
		res      *core.Result
		arenaErr error
		buf      *arenaBuf

		lpm      *netutil.LPM
		asnView  *serve.ASNView
		reports  []*diag.LoadReport
		indexErr error
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recPayload := payloads[secRecords]
		n, cerr := recordsCount(recPayload, meta.arenaLen)
		if cerr != nil {
			arenaErr = cerr
			return
		}
		// Allocating (and zeroing) the arena is the single biggest cost
		// of a v3 restore; start it immediately so it overlaps the
		// string-table and slab decodes, which do not need it. Mapped
		// opens draw from the arena pool (their final release is the
		// recycle hook); heap opens have no release signal, so the GC
		// owns their arena.
		infsCh := make(chan []core.Inference, 1)
		go func() {
			if backing != nil {
				buf = arenaGet(n)
				infsCh <- buf.infs
				return
			}
			infsCh <- make([]core.Inference, n)
		}()
		tbl, cerr := decodeStrTab(payloads[secStrTab])
		if cerr != nil {
			arenaErr = cerr
			<-infsCh
			return
		}
		slab, cerr := decodeFlatU32s(payloads[secU32Slab], "u32slab")
		if cerr != nil {
			arenaErr = cerr
			<-infsCh
			return
		}
		refs, cerr := decodeFlatU32s(payloads[secStrRefs], "strrefs")
		if cerr != nil {
			arenaErr = cerr
			<-infsCh
			return
		}
		infs := <-infsCh
		runs, cerr := decodeRecordsInto(infs, recPayload, &tbl, slab, refs)
		if cerr != nil {
			arenaErr = cerr
			return
		}
		r, err := core.ResultFromRuns(infs, runs, meta.totalBGP, meta.routedSpace)
		if err != nil {
			arenaErr = corrupt("records", "result rejected", err)
			return
		}
		res = r
	}()
	l, err := netutil.LPMFromNative(payloads[secLPMNative], meta.arenaLen)
	if err != nil {
		indexErr = corrupt("lpm", "index rejected", err)
	} else if asnView, cerr = decodeByASNNative(payloads[secByASNNative], meta.arenaLen); cerr != nil {
		indexErr = cerr
	} else if reports, cerr = decodeReports(payloads[secReports]); cerr != nil {
		indexErr = cerr
	} else {
		lpm = l
	}
	wg.Wait()
	if arenaErr != nil || indexErr != nil {
		arenaPut(buf) // never escaped; reclaim it for the next open
		if arenaErr != nil {
			return nil, arenaErr
		}
		return nil, indexErr
	}
	if buf != nil {
		backing = &arenaRecycler{Backing: backing, buf: buf}
	}
	snap, err := serve.Restore(serve.Restored{
		BuiltAt:         meta.builtAt,
		Generation:      gen,
		Provenance:      meta.provenance,
		Dir:             meta.dir,
		Strict:          meta.strict,
		Result:          res,
		LPM:             lpm,
		ByASNView:       asnView,
		Table1:          payloads[secTable1],
		Reports:         reports,
		SkippedAnalyses: meta.skippedAnalyses,
		Backing:         backing,
	})
	if err != nil {
		return nil, corrupt("snapshot", "restore rejected", err)
	}
	return snap, nil
}
