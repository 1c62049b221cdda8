package serve

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/whois"
)

// The record layout: how a snapshot holds its classifications. Every
// snapshot — built in-process, decoded from heap bytes, or mapped from
// a generation file — answers from the same four sections, and this
// file is their only encoder, validator and decoder. The snapshot codec
// (internal/snapstore) frames, checksums and stores them as opaque
// payloads.
//
//	strtab   u32 count, u32 blobLen, count×(u32 off, u32 len), blob
//	u32slab  u32 count, 4 zero pad, count×u32 — every RootASNs/
//	         RootOrigins/LeafOrigins run, concatenated
//	strrefs  u32 count, 4 zero pad, count×u32 string IDs — every
//	         Facilitators run, concatenated
//	records  u32 count, 4 zero pad, count×56-byte records addressing
//	         the slabs by (offset, length)
//
// A record is 13 little-endian u32s — prefix base, root base, the
// holder, netname and country string IDs, then (offset, length) of the
// root-ASN, root-origin, leaf-origin and facilitator runs — followed by
// the registry, category, prefix length and root length bytes.
//
// Nothing is decoded ahead of a request: a lookup decodes the one
// record it answers into a caller-owned core.Inference, whose strings
// alias the string blob (unsafe.String) and whose origin lists are
// sub-slices of the u32 slab. The sections are the only copy of the
// classifications a snapshot holds.

// recordSize is one fixed-width record.
const recordSize = 56

// hostLittleEndian reports whether u32 views can alias little-endian
// payload bytes directly.
var hostLittleEndian = func() bool {
	probe := uint32(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// RecordSections are the four record-layout payloads, each starting
// with its own header (see the layout above).
type RecordSections struct {
	StrTab, U32Slab, StrRefs, Records []byte
}

// Records is a view over a snapshot's record sections: the strings,
// slabs and fixed-width records every lookup decodes from. It holds no
// per-record state, so a view over mapped bytes costs a few slice
// headers.
type Records struct {
	secs RecordSections
	n    int
	recs []byte   // n records: the records payload past its header
	strs []uint32 // (off, len) pairs into blob, one per string ID
	blob []byte
	slab []uint32
	refs []uint32
	// counts tallies the records by category.
	counts [core.NumCategories]int
}

// RecordError reports record sections that failed validation.
type RecordError struct {
	// Section names the payload at fault: "strtab", "u32slab",
	// "strrefs" or "records".
	Section string
	Reason  string
	// Truncated marks a payload whose length disagrees with its header.
	Truncated bool
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("serve: %s: %s", e.Section, e.Reason)
}

func recordErr(section, reason string) *RecordError {
	return &RecordError{Section: section, Reason: reason}
}

func truncatedErr(section, reason string) *RecordError {
	return &RecordError{Section: section, Reason: reason, Truncated: true}
}

// encodeRecords lays an inference arena out as the four record
// sections and returns the view over them. String IDs are assigned in
// first-appearance order and deduplicated, so the encoding is
// deterministic for a given arena. A counting pass sizes every section
// exactly, so each is one allocation written in place.
func encodeRecords(infs []core.Inference) *Records {
	le := binary.LittleEndian
	nSlab, nRefs := 0, 0
	for i := range infs {
		inf := &infs[i]
		nSlab += len(inf.RootASNs) + len(inf.RootOrigins) + len(inf.LeafOrigins)
		nRefs += len(inf.Facilitators)
	}
	records := make([]byte, 8+recordSize*len(infs))
	u32slab := make([]byte, 8+4*nSlab)
	strrefs := make([]byte, 8+4*nRefs)
	le.PutUint32(records, uint32(len(infs)))
	le.PutUint32(u32slab, uint32(nSlab))
	le.PutUint32(strrefs, uint32(nRefs))

	// A world has about one distinct string per record (a netname each,
	// plus shared holders and countries): the hint keeps the map from
	// growing.
	ids := make(map[string]uint32, 2*len(infs))
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
	slabAt, refAt := 0, 0
	run := func(vs []uint32) (off, cnt uint32) {
		off = uint32(slabAt)
		for _, v := range vs {
			le.PutUint32(u32slab[8+4*slabAt:], v)
			slabAt++
		}
		return off, uint32(len(vs))
	}
	var counts [core.NumCategories]int
	// Leaves of one root run back to back and share its holder, so the
	// previous record's holder ID is usually the answer.
	var holder string
	var holderID uint32
	for i := range infs {
		inf := &infs[i]
		rec := records[8+recordSize*i:][:recordSize]
		raOff, raCnt := run(inf.RootASNs)
		roOff, roCnt := run(inf.RootOrigins)
		loOff, loCnt := run(inf.LeafOrigins)
		facOff := uint32(refAt)
		for _, f := range inf.Facilitators {
			le.PutUint32(strrefs[8+4*refAt:], strID(f))
			refAt++
		}
		// IDs are assigned in this order: facilitators, holder, netname,
		// country.
		if i == 0 || inf.HolderOrg != holder {
			holder, holderID = inf.HolderOrg, strID(inf.HolderOrg)
		}
		le.PutUint32(rec[0:], uint32(inf.Prefix.Base))
		le.PutUint32(rec[4:], uint32(inf.Root.Base))
		le.PutUint32(rec[8:], holderID)
		le.PutUint32(rec[12:], strID(inf.NetName))
		le.PutUint32(rec[16:], strID(inf.Country))
		le.PutUint32(rec[20:], raOff)
		le.PutUint32(rec[24:], raCnt)
		le.PutUint32(rec[28:], roOff)
		le.PutUint32(rec[32:], roCnt)
		le.PutUint32(rec[36:], loOff)
		le.PutUint32(rec[40:], loCnt)
		le.PutUint32(rec[44:], facOff)
		le.PutUint32(rec[48:], uint32(len(inf.Facilitators)))
		rec[52], rec[53], rec[54], rec[55] = byte(inf.Registry), byte(inf.Category), inf.Prefix.Len, inf.Root.Len
		if int(inf.Category) < core.NumCategories {
			counts[inf.Category]++
		}
	}

	strtab := make([]byte, 8+8*len(strs)+blobLen)
	le.PutUint32(strtab[0:], uint32(len(strs)))
	le.PutUint32(strtab[4:], uint32(blobLen))
	blob := strtab[8+8*len(strs):]
	off := 0
	for k, s := range strs {
		le.PutUint32(strtab[8+8*k:], uint32(off))
		le.PutUint32(strtab[12+8*k:], uint32(len(s)))
		off += copy(blob[off:], s)
	}
	r := viewRecords(RecordSections{StrTab: strtab, U32Slab: u32slab, StrRefs: strrefs, Records: records})
	r.counts = counts
	return r
}

// viewRecords wraps sections whose headers agree with their lengths.
func viewRecords(secs RecordSections) *Records {
	le := binary.LittleEndian
	nStr := int(le.Uint32(secs.StrTab[0:]))
	return &Records{
		secs: secs,
		n:    int(le.Uint32(secs.Records[0:])),
		recs: secs.Records[8:],
		strs: asU32View(secs.StrTab[8:8+8*nStr], 2*nStr),
		blob: secs.StrTab[8+8*nStr:],
		slab: asU32View(secs.U32Slab[8:], int(le.Uint32(secs.U32Slab[0:]))),
		refs: asU32View(secs.StrRefs[8:], int(le.Uint32(secs.StrRefs[0:]))),
	}
}

// asU32View returns b's first n little-endian u32s, aliasing b when the
// host layout permits and copying otherwise. The caller has verified
// len(b) >= 4n.
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

// checkFlatU32s checks a "u32 count, 4 pad, count×u32" payload's length.
func checkFlatU32s(payload []byte, sec string) *RecordError {
	if len(payload) < 8 {
		return truncatedErr(sec, fmt.Sprintf("payload of %d bytes has no header", len(payload)))
	}
	n := binary.LittleEndian.Uint32(payload[0:4])
	if uint64(len(payload)) != 8+4*uint64(n) {
		return truncatedErr(sec, fmt.Sprintf("payload is %d bytes, want %d for %d elements", len(payload), 8+4*uint64(n), n))
	}
	return nil
}

// registryRank maps a registry byte to its position in whois.Registries,
// -1 for a byte that names no registry.
var registryRank = func() (rank [256]int8) {
	for i := range rank {
		rank[i] = -1
	}
	for i, reg := range whois.Registries {
		rank[reg] = int8(i)
	}
	return rank
}()

// OpenRecords validates record sections holding n records and returns
// the view over them. It is the one pass an open makes over the
// records, and it writes nothing per record: every string ID, slab run
// and facilitator run must lie inside its section, every category must
// be known, every prefix canonical, and the registries must run in
// whois.Registries order — so a lookup can decode any record without a
// range check, and a damaged section fails here rather than at request
// time. The pass also tallies the records by category. The view aliases
// secs, which must stay immutable for its lifetime. Errors are
// *RecordError.
func OpenRecords(secs RecordSections, n int) (*Records, error) {
	le := binary.LittleEndian
	st := secs.StrTab
	if len(st) < 8 {
		return nil, truncatedErr("strtab", fmt.Sprintf("payload of %d bytes has no header", len(st)))
	}
	nStr := le.Uint32(st[0:4])
	blobLen := le.Uint32(st[4:8])
	if need := 8 + 8*uint64(nStr) + uint64(blobLen); uint64(len(st)) != need {
		return nil, truncatedErr("strtab", fmt.Sprintf("payload is %d bytes, want %d for %d strings + %d blob",
			len(st), need, nStr, blobLen))
	}
	if err := checkFlatU32s(secs.U32Slab, "u32slab"); err != nil {
		return nil, err
	}
	if err := checkFlatU32s(secs.StrRefs, "strrefs"); err != nil {
		return nil, err
	}
	rp := secs.Records
	if len(rp) < 8 {
		return nil, truncatedErr("records", fmt.Sprintf("payload of %d bytes has no header", len(rp)))
	}
	cnt := le.Uint32(rp[0:4])
	if uint64(len(rp)) != 8+recordSize*uint64(cnt) {
		return nil, truncatedErr("records", fmt.Sprintf("payload is %d bytes, want %d for %d records",
			len(rp), 8+recordSize*uint64(cnt), cnt))
	}
	if uint64(cnt) != uint64(n) {
		return nil, recordErr("records", fmt.Sprintf("section holds %d records, meta says %d", cnt, n))
	}
	r := viewRecords(secs)
	for i := uint32(0); i < nStr; i++ {
		off, ln := r.strs[2*i], r.strs[2*i+1]
		if uint64(off)+uint64(ln) > uint64(blobLen) {
			return nil, recordErr("strtab", fmt.Sprintf("string %d run [%d,%d) outside blob of %d", i, off, uint64(off)+uint64(ln), blobLen))
		}
	}
	for i, id := range r.refs {
		if id >= nStr {
			return nil, recordErr("strrefs", fmt.Sprintf("reference %d names string %d outside table of %d", i, id, nStr))
		}
	}
	if err := r.check(nStr); err != nil {
		return nil, err
	}
	return r, nil
}

// check validates every record and tallies categories. The loop runs
// once per record on every open, so it is written for the optimizer: a
// capped 56-byte reslice hoists the field bounds checks, and the slow
// error-formatting paths live in noinline helpers.
func (r *Records) check(nStr uint32) *RecordError {
	le := binary.LittleEndian
	nSlab, nFac := uint64(len(r.slab)), uint64(len(r.refs))
	lastRank := int8(-1)
	cursor := r.recs
	for i := 0; i < r.n; i++ {
		rec := cursor[:recordSize:recordSize]
		cursor = cursor[recordSize:]
		reg, cat := rec[52], rec[53]
		if int(cat) >= core.NumCategories {
			return corruptRecordCat(i, cat)
		}
		rank := registryRank[reg]
		if rank < 0 || rank < lastRank {
			return corruptRecordRegistry(i, reg)
		}
		lastRank = rank
		r.counts[cat]++
		holder, netname, country := le.Uint32(rec[8:]), le.Uint32(rec[12:]), le.Uint32(rec[16:])
		if holder >= nStr || netname >= nStr || country >= nStr {
			return corruptRecordStr(i, holder, netname, country, nStr)
		}
		aOff, aCnt := uint64(le.Uint32(rec[20:])), uint64(le.Uint32(rec[24:]))
		rOff, rCnt := uint64(le.Uint32(rec[28:])), uint64(le.Uint32(rec[32:]))
		lOff, lCnt := uint64(le.Uint32(rec[36:])), uint64(le.Uint32(rec[40:]))
		if aOff+aCnt > nSlab || rOff+rCnt > nSlab || lOff+lCnt > nSlab {
			return corruptRecordRun(i, nSlab, aOff, aCnt, rOff, rCnt, lOff, lCnt)
		}
		if fOff, fCnt := uint64(le.Uint32(rec[44:])), uint64(le.Uint32(rec[48:])); fOff+fCnt > nFac {
			return recordErr("records", fmt.Sprintf("record %d facilitator run [%d,%d) outside refs of %d",
				i, fOff, fOff+fCnt, nFac))
		}
		prefix := netutil.Prefix{Base: netutil.Addr(le.Uint32(rec[0:])), Len: rec[54]}
		root := netutil.Prefix{Base: netutil.Addr(le.Uint32(rec[4:])), Len: rec[55]}
		if !prefix.Canonical() || !root.Canonical() {
			return recordErr("records", fmt.Sprintf("record %d has a non-canonical prefix", i))
		}
	}
	return nil
}

//go:noinline
func corruptRecordCat(i int, cat byte) *RecordError {
	return recordErr("records", fmt.Sprintf("record %d has category %d out of range", i, cat))
}

//go:noinline
func corruptRecordRegistry(i int, reg byte) *RecordError {
	if registryRank[reg] < 0 {
		return recordErr("records", fmt.Sprintf("record %d has unknown registry %d", i, reg))
	}
	return recordErr("records", fmt.Sprintf("record %d: registry %v out of order", i, whois.Registry(reg)))
}

//go:noinline
func corruptRecordStr(i int, holder, netname, country, nStr uint32) *RecordError {
	for _, f := range []struct {
		name string
		id   uint32
	}{{"holder", holder}, {"netname", netname}, {"country", country}} {
		if f.id >= nStr {
			return recordErr("records", fmt.Sprintf("record %d %s names string %d outside table of %d", i, f.name, f.id, nStr))
		}
	}
	return recordErr("records", fmt.Sprintf("record %d names a string outside the table", i))
}

//go:noinline
func corruptRecordRun(i int, nSlab, aOff, aCnt, rOff, rCnt, lOff, lCnt uint64) *RecordError {
	for _, f := range []struct {
		name     string
		off, cnt uint64
	}{{"root-ASN", aOff, aCnt}, {"root-origin", rOff, rCnt}, {"leaf-origin", lOff, lCnt}} {
		if f.off+f.cnt > nSlab {
			return recordErr("records", fmt.Sprintf("record %d %s run [%d,%d) outside slab of %d",
				i, f.name, f.off, f.off+f.cnt, nSlab))
		}
	}
	return recordErr("records", fmt.Sprintf("record %d has a run outside the slab", i))
}

// Sections returns the payloads the view reads, for the snapshot codec
// to write verbatim. Read-only.
func (r *Records) Sections() RecordSections { return r.secs }

// Len returns the number of records.
func (r *Records) Len() int { return r.n }

// leased counts the records in leased categories.
func (r *Records) leased() int {
	n := 0
	for c, k := range r.counts {
		if core.Category(c).Leased() {
			n += k
		}
	}
	return n
}

// str resolves a validated string ID against the blob.
func (r *Records) str(id uint32) string {
	off, ln := r.strs[2*id], r.strs[2*id+1]
	if ln == 0 {
		return ""
	}
	return unsafe.String(&r.blob[off], int(ln))
}

// run returns a validated slab run as a capped sub-slice, nil if empty.
func (r *Records) run(off, cnt uint32) []uint32 {
	if cnt == 0 {
		return nil
	}
	return r.slab[off : off+cnt : off+cnt]
}

// decode writes record i into dst. Strings alias the string blob and
// origin lists the u32 slab; Facilitators reuses dst's backing array,
// so a caller that decodes into the same value again and again
// allocates only while that array grows.
func (r *Records) decode(i int32, dst *core.Inference) {
	le := binary.LittleEndian
	rec := r.recs[recordSize*int(i):][:recordSize:recordSize]
	dst.Registry = whois.Registry(rec[52])
	dst.Category = core.Category(rec[53])
	dst.Prefix = netutil.Prefix{Base: netutil.Addr(le.Uint32(rec[0:])), Len: rec[54]}
	dst.Root = netutil.Prefix{Base: netutil.Addr(le.Uint32(rec[4:])), Len: rec[55]}
	dst.HolderOrg = r.str(le.Uint32(rec[8:]))
	dst.NetName = r.str(le.Uint32(rec[12:]))
	dst.Country = r.str(le.Uint32(rec[16:]))
	dst.RootASNs = r.run(le.Uint32(rec[20:]), le.Uint32(rec[24:]))
	dst.RootOrigins = r.run(le.Uint32(rec[28:]), le.Uint32(rec[32:]))
	dst.LeafOrigins = r.run(le.Uint32(rec[36:]), le.Uint32(rec[40:]))
	fac := dst.Facilitators[:0]
	if off, cnt := le.Uint32(rec[44:]), le.Uint32(rec[48:]); cnt > 0 {
		for _, id := range r.refs[off : off+cnt] {
			fac = append(fac, r.str(id))
		}
	}
	dst.Facilitators = fac
}
