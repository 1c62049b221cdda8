// Package snapstore persists serving snapshots: a versioned,
// checksummed binary format that carries a *serve.Snapshot's flat
// serving indexes directly (no re-inference on load), a crash-safe
// on-disk store with atomic generation publication, and an HTTP
// publisher/fetcher pair for replicas that serve without a dataset.
//
// The package owns the framing (header, section table, alignment), the
// checksums, the LPM and ASN-index sections and the files. The four
// record sections are internal/serve's layout: this package writes the
// bytes a snapshot already holds and hands the opened ones to
// serve.OpenRecords, so a mapped generation serves its records from the
// page cache with nothing decoded ahead of a request.
//
// The format is paranoid by construction. Every section carries its own
// CRC-32C and the file carries a whole-file CRC-32C, so a torn write, a
// flipped bit, or a truncated download is detected before a single
// decoded value is trusted; counts are bounds-checked against remaining
// bytes so a corrupt length can never become an allocation bomb; and
// decode either returns a fully servable snapshot or a typed
// *CorruptError — never a partial one.
package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"ipleasing/internal/diag"
	"ipleasing/internal/serve"
)

// FormatVersion is the snapshot format version: the only version
// Encode writes and the only version Decode and OpenFile accept. Any
// other version — an older generation left on disk by a previous
// release included — is a clean typed rejection (ErrBadVersion), which
// the store's recovery scan treats like any corrupt generation: it
// skips it, so a publisher re-infers and a replica re-fetches. Bump
// FormatVersion on ANY layout change — a version mismatch is a clean
// typed rejection, a silent layout drift is a corruption bug.
//
// Version history (only v3 decodes):
//
//	1 — initial layout.
//	2 — meta section gained a trailing provenance traceparent (the
//	    publisher reload trace that built the generation).
//	3 — relocatable mmap-servable layout: the varint arena/LPM/byASN
//	    sections (IDs 2–4, now retired) were replaced by
//	    offset-addressed, 8-aligned flat sections (string table, u32
//	    slab, fixed-width records, native LPM nodes, flat ASN index)
//	    that serve.Snapshot and netutil.LPM wrap as views over the raw
//	    bytes — from the heap or straight from a memory-mapped file.
const FormatVersion = 3

// magic identifies a snapshot file. 8 bytes, never changes; the version
// field after it is what evolves.
const magic = "IPLSNAP1"

// Section IDs. The section table makes sections self-describing, so a
// future version can append new sections without disturbing this
// decoder's view of the old ones — but removing or reshaping one
// requires a FormatVersion bump. IDs 2–4 belonged to the v2 varint
// arena, LPM and ASN sections and are never reused.
const (
	secMeta    = 1 // build metadata: BuiltAt, Dir, Strict, totals, skipped analyses
	secTable1  = 5 // pre-rendered Markdown Table 1, verbatim bytes
	secReports = 6 // per-source load accounting

	// Relocatable sections. Every payload starts at an 8-aligned file
	// offset (the encoder zero-pads the gaps) so fixed-width records can
	// be aliased in place.
	secStrTab      = 7  // interned string table: offsets + lengths into one blob
	secU32Slab     = 8  // all ASN/origin list elements, one flat u32 array
	secStrRefs     = 9  // all facilitator references, one flat string-ID array
	secRecords     = 10 // fixed 56-byte inference records addressing the slabs
	secLPMNative   = 11 // LPM node array in native in-memory layout (AppendNative)
	secByASNNative = 12 // sorted (ASN, off, count) entries over an int32 slab
)

// headerSize is magic(8) + version(4) + generation(8) + section count(4).
const headerSize = 8 + 4 + 8 + 4

// sectionEntrySize is one section-table entry: id(4) + offset(8) +
// length(8) + CRC-32C(4).
const sectionEntrySize = 4 + 8 + 8 + 4

// maxSections bounds the section-table count a decoder will honour;
// far above any plausible format evolution, low enough that a corrupt
// count cannot drive a huge table allocation.
const maxSections = 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors. Every decode failure satisfies
// errors.Is(err, ErrCorrupt); the more specific sentinels narrow the
// cause for callers that care (the store's recovery scan treats them
// all the same — skip the generation).
var (
	// ErrCorrupt is the umbrella: the bytes are not a loadable snapshot.
	ErrCorrupt = errors.New("snapstore: corrupt snapshot")
	// ErrBadMagic marks a file that is not a snapshot at all.
	ErrBadMagic = errors.New("snapstore: bad magic")
	// ErrBadVersion marks a snapshot written by a different format
	// version.
	ErrBadVersion = errors.New("snapstore: unsupported format version")
	// ErrChecksum marks a CRC mismatch (whole-file or per-section).
	ErrChecksum = errors.New("snapstore: checksum mismatch")
	// ErrTruncated marks a file shorter than its own structure claims.
	ErrTruncated = errors.New("snapstore: truncated snapshot")
)

// CorruptError reports why a snapshot was rejected. It unwraps to both
// ErrCorrupt and the specific sentinel (when one applies), so
// errors.Is works against either.
type CorruptError struct {
	Section string // section being decoded, or "header"/"file"
	Reason  string
	Err     error // specific sentinel or underlying decode error, may be nil
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("snapstore: %s: %s: %v", e.Section, e.Reason, e.Err)
	}
	return fmt.Sprintf("snapstore: %s: %s", e.Section, e.Reason)
}

func (e *CorruptError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrCorrupt, e.Err}
	}
	return []error{ErrCorrupt}
}

func corrupt(section, reason string, err error) *CorruptError {
	return &CorruptError{Section: section, Reason: reason, Err: err}
}

// ---- encoding ----

// appendUvarint, appendU32, appendU64, appendStr, appendStrs are the
// little-endian building blocks shared by every section encoder.

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

func encodeMeta(snap *serve.Snapshot) []byte {
	b := make([]byte, 0, 64+len(snap.Dir))
	var builtAt int64
	if !snap.BuiltAt.IsZero() {
		builtAt = snap.BuiltAt.UnixNano()
	}
	b = appendU64(b, uint64(builtAt))
	b = appendUvarint(b, uint64(snap.TotalBGPPrefixes()))
	b = appendU64(b, snap.RoutedSpace())
	b = appendUvarint(b, uint64(snap.NumInferences()))
	if snap.Strict {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendStr(b, snap.Dir)
	b = appendStrs(b, snap.SkippedAnalyses)
	b = appendStr(b, snap.Provenance)
	return b
}

func encodeReports(reports []*diag.LoadReport) []byte {
	b := make([]byte, 0, 64*len(reports)+16)
	n := 0
	for _, r := range reports {
		if r != nil {
			n++
		}
	}
	b = appendUvarint(b, uint64(n))
	for _, r := range reports {
		if r == nil {
			continue
		}
		b = appendStr(b, r.Source)
		b = appendStr(b, r.File)
		b = appendUvarint(b, uint64(r.Parsed))
		b = appendUvarint(b, uint64(r.Skipped))
		b = appendU64(b, uint64(r.Bytes))
		var flags byte
		if r.Missing {
			flags |= 1
		}
		if r.Truncated {
			flags |= 2
		}
		b = append(b, flags)
	}
	return b
}

// fileSection is one (id, payload) pair headed for encodeFile.
type fileSection struct {
	id      uint32
	payload []byte
}

// encodeFile assembles the header, section table, payloads, and
// whole-file CRC. Every payload is placed at an 8-aligned file offset
// with zero bytes in the gaps (the layout contract that makes
// fixed-width sections aliasable in place); the header plus table is
// 8-aligned by construction (24 + 24n).
func encodeFile(gen uint64, sections []fileSection) []byte {
	offs := make([]int, len(sections))
	off := headerSize + len(sections)*sectionEntrySize
	for i, s := range sections {
		off = (off + 7) &^ 7
		offs[i] = off
		off += len(s.payload)
	}
	total := off + 4 // whole-file CRC

	b := make([]byte, 0, total)
	b = append(b, magic...)
	b = appendU32(b, FormatVersion)
	b = appendU64(b, gen)
	b = appendU32(b, uint32(len(sections)))
	for i, s := range sections {
		b = appendU32(b, s.id)
		b = appendU64(b, uint64(offs[i]))
		b = appendU64(b, uint64(len(s.payload)))
		b = appendU32(b, crc32.Checksum(s.payload, castagnoli))
	}
	for i, s := range sections {
		for len(b) < offs[i] {
			b = append(b, 0)
		}
		b = append(b, s.payload...)
	}
	b = appendU32(b, crc32.Checksum(b, castagnoli))
	return b
}

// Encode serializes a serving snapshot into the relocatable binary
// form. The encoding reads only the snapshot's immutable serving
// indexes — the record sections, the LPM node array, the ASN index's
// entry and slab arrays, the pre-rendered Table 1, and the load
// accounting — so a decoded snapshot answers every query
// byte-identically without re-running inference or any index build,
// and an mmap open serves the fixed-width sections in place without
// decoding them at all. The record sections are written as the
// snapshot holds them, never re-encoded. gen is the generation number
// stamped into the header.
func Encode(snap *serve.Snapshot, gen uint64) []byte {
	recs := snap.Records().Sections()
	sections := []fileSection{
		{secMeta, encodeMeta(snap)},
		{secStrTab, recs.StrTab},
		{secU32Slab, recs.U32Slab},
		{secStrRefs, recs.StrRefs},
		{secRecords, recs.Records},
		{secLPMNative, snap.LPM().AppendNative(nil)},
		{secByASNNative, encodeASNView(snap.ASNView())},
		{secTable1, snap.Table1()},
		{secReports, encodeReports(snap.Reports)},
	}
	return encodeFile(gen, sections)
}

// ---- decoding ----

// reader is a bounds-checked little-endian cursor over one section's
// payload. The first failure sticks; every later read returns zero
// values, so decode loops stay linear and the single error carries the
// first (root-cause) rejection.
type reader struct {
	data []byte
	off  int
	sec  string
	err  *CorruptError
}

func (r *reader) fail(reason string, err error) {
	if r.err == nil {
		r.err = corrupt(r.sec, reason, err)
	}
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail(fmt.Sprintf("need %d bytes, have %d", n, r.remaining()), ErrTruncated)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint", ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and rejects it unless the remaining
// bytes could plausibly hold that many elements of at least elemMin
// bytes each — the allocation-bomb guard.
func (r *reader) count(what string, elemMin int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v > uint64(r.remaining()/elemMin) {
		r.fail(fmt.Sprintf("%s count %d exceeds remaining payload", what, v), ErrTruncated)
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.count("string length", 1)
	b := r.take(n)
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

func (r *reader) strlist() []string {
	n := r.count("string list", 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// done rejects trailing garbage: a valid section is consumed exactly.
func (r *reader) done() {
	if r.err == nil && r.remaining() != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", r.remaining()), nil)
	}
}

type decodedMeta struct {
	builtAt         time.Time
	dir             string
	strict          bool
	totalBGP        int
	routedSpace     uint64
	arenaLen        int
	skippedAnalyses []string
	provenance      string
}

func decodeMeta(payload []byte) (decodedMeta, *CorruptError) {
	r := &reader{data: payload, sec: "meta"}
	var m decodedMeta
	builtAt := int64(r.u64())
	m.totalBGP = int(r.uvarint())
	m.routedSpace = r.u64()
	m.arenaLen = int(r.uvarint())
	m.strict = r.u8() == 1
	m.dir = r.str()
	m.skippedAnalyses = r.strlist()
	m.provenance = r.str()
	r.done()
	if r.err != nil {
		return decodedMeta{}, r.err
	}
	if builtAt != 0 {
		m.builtAt = time.Unix(0, builtAt)
	}
	return m, nil
}

func decodeReports(payload []byte) ([]*diag.LoadReport, *CorruptError) {
	r := &reader{data: payload, sec: "reports"}
	n := r.count("report", 13)
	if r.err != nil {
		return nil, r.err
	}
	var reports []*diag.LoadReport
	for i := 0; i < n; i++ {
		rep := &diag.LoadReport{
			Source:  r.str(),
			File:    r.str(),
			Parsed:  int(r.uvarint()),
			Skipped: int(r.uvarint()),
			Bytes:   int64(r.u64()),
		}
		flags := r.u8()
		rep.Missing = flags&1 != 0
		rep.Truncated = flags&2 != 0
		if r.err != nil {
			return nil, r.err
		}
		reports = append(reports, rep)
	}
	r.done()
	if r.err != nil {
		return nil, r.err
	}
	return reports, nil
}

// header validates the fixed header, returning the generation and the
// section count. Shared by Decode, OpenFile and ReadGeneration so all
// reject non-snapshots identically. Only FormatVersion passes.
func header(data []byte) (gen uint64, nsect int, err *CorruptError) {
	if len(data) < headerSize+4 {
		return 0, 0, corrupt("header", fmt.Sprintf("file of %d bytes is shorter than any snapshot", len(data)), ErrTruncated)
	}
	if string(data[:8]) != magic {
		return 0, 0, corrupt("header", "not a snapshot file", ErrBadMagic)
	}
	if ver := binary.LittleEndian.Uint32(data[8:12]); ver != FormatVersion {
		return 0, 0, corrupt("header", fmt.Sprintf("format version %d, want %d", ver, FormatVersion), ErrBadVersion)
	}
	gen = binary.LittleEndian.Uint64(data[12:20])
	n := binary.LittleEndian.Uint32(data[20:24])
	if n == 0 || n > maxSections {
		return 0, 0, corrupt("header", fmt.Sprintf("implausible section count %d", n), nil)
	}
	return gen, int(n), nil
}

// parseFile validates the header, checksums, and section table, and
// returns the generation and per-section payload slices (aliasing
// data). Every byte is proven before any section is handed out — eager,
// not lazy — so a caller that goes on to alias sections in place (the
// mmap path) has already validated everything it will trust. The happy path pays exactly one scan: the whole-file
// CRC covers the header, the section table, every payload, and the
// alignment padding between them, so the per-section CRCs carry no
// additional proof when it matches. They are the attribution pass: on
// a whole-file mismatch each section is re-checksummed individually so
// the error names the section that rotted rather than just "the file".
// The validate-then-trust contract: after parseFile succeeds,
// structural decoding may still reject the content, but no read past
// a section's bounds and no checksum surprise is possible.
func parseFile(data []byte) (gen uint64, payloads map[uint32][]byte, cerr *CorruptError) {
	gen, nsect, cerr := header(data)
	if cerr != nil {
		return 0, nil, cerr
	}
	body := len(data) - 4
	fileCRC := binary.LittleEndian.Uint32(data[body:])

	tableEnd := headerSize + nsect*sectionEntrySize
	if tableEnd > body {
		return 0, nil, corrupt("header", "section table extends past file", ErrTruncated)
	}
	type tableEntry struct {
		id  uint32
		crc uint32
		off uint64
		ln  uint64
	}
	entries := make([]tableEntry, nsect)
	payloads = make(map[uint32][]byte, nsect)
	for i := 0; i < nsect; i++ {
		e := data[headerSize+i*sectionEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint64(e[4:12])
		ln := binary.LittleEndian.Uint64(e[12:20])
		crc := binary.LittleEndian.Uint32(e[20:24])
		if off < uint64(tableEnd) || off > uint64(body) || ln > uint64(body)-off {
			return 0, nil, corrupt("header", fmt.Sprintf("section %d extends past file", id), ErrTruncated)
		}
		if _, dup := payloads[id]; dup {
			return 0, nil, corrupt("header", fmt.Sprintf("duplicate section %d", id), nil)
		}
		if off%8 != 0 {
			return 0, nil, corrupt(sectionName(id), fmt.Sprintf("section at unaligned offset %d", off), nil)
		}
		entries[i] = tableEntry{id: id, crc: crc, off: off, ln: ln}
		payloads[id] = data[off : off+ln]
	}
	if crc32.Checksum(data[:body], castagnoli) != fileCRC {
		for _, e := range entries {
			if crc32.Checksum(data[e.off:e.off+e.ln], castagnoli) != e.crc {
				return 0, nil, corrupt(sectionName(e.id), "section CRC mismatch", ErrChecksum)
			}
		}
		return 0, nil, corrupt("file", "whole-file CRC mismatch", ErrChecksum)
	}
	for _, id := range []uint32{secMeta, secStrTab, secU32Slab, secStrRefs, secRecords,
		secLPMNative, secByASNNative, secTable1, secReports} {
		if _, ok := payloads[id]; !ok {
			return 0, nil, corrupt(sectionName(id), "section missing", nil)
		}
	}
	return gen, payloads, nil
}

// Decode validates and decodes a snapshot file held on the heap,
// returning a fully servable snapshot and its generation. The returned
// snapshot's LoadMode is serve.LoadModeHeap, so a reload that serves
// it counts as a snapshot reload, not a build. Its indexes are views
// over data — the caller must treat data as immutable for the
// snapshot's lifetime (the GC keeps it alive).
//
// Decode never returns a partial snapshot: any magic, version,
// checksum, bounds, or structural failure yields (nil, 0, err) with
// errors.Is(err, ErrCorrupt) true.
func Decode(data []byte) (*serve.Snapshot, uint64, error) {
	gen, payloads, cerr := parseFile(data)
	if cerr != nil {
		return nil, 0, cerr
	}
	snap, err := openV3(payloads, gen, nil)
	if err != nil {
		return nil, 0, err
	}
	return snap, gen, nil
}

// ReadGeneration extracts the generation number from an encoded
// snapshot after validating the header and whole-file checksum — the
// cheap integrity check a store or fetcher runs before committing to a
// full decode.
func ReadGeneration(data []byte) (uint64, error) {
	gen, _, cerr := header(data)
	if cerr != nil {
		return 0, cerr
	}
	body := len(data) - 4
	if crc32.Checksum(data[:body], castagnoli) != binary.LittleEndian.Uint32(data[body:]) {
		return 0, corrupt("file", "whole-file CRC mismatch", ErrChecksum)
	}
	return gen, nil
}

// SectionRange locates one section's payload inside an encoded
// snapshot. This is the fault-injection surface: corruption tests use
// it to flip bits inside every individual section and assert each one
// is rejected.
type SectionRange struct {
	Name string
	Off  int
	Len  int
}

// SectionRanges parses an intact snapshot's section table and returns
// every section's payload range within the file.
func SectionRanges(data []byte) ([]SectionRange, error) {
	_, nsect, cerr := header(data)
	if cerr != nil {
		return nil, cerr
	}
	body := len(data) - 4
	tableEnd := headerSize + nsect*sectionEntrySize
	if tableEnd > body {
		return nil, corrupt("header", "section table extends past file", ErrTruncated)
	}
	out := make([]SectionRange, 0, nsect)
	for i := 0; i < nsect; i++ {
		e := data[headerSize+i*sectionEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint64(e[4:12])
		ln := binary.LittleEndian.Uint64(e[12:20])
		if off < uint64(tableEnd) || off > uint64(body) || ln > uint64(body)-off {
			return nil, corrupt("header", fmt.Sprintf("section %d extends past file", id), ErrTruncated)
		}
		out = append(out, SectionRange{Name: sectionName(id), Off: int(off), Len: int(ln)})
	}
	return out, nil
}

func sectionName(id uint32) string {
	switch id {
	case secMeta:
		return "meta"
	case secTable1:
		return "table1"
	case secReports:
		return "reports"
	case secStrTab:
		return "strtab"
	case secU32Slab:
		return "u32slab"
	case secStrRefs:
		return "strrefs"
	case secRecords:
		return "records"
	case secLPMNative:
		return "lpm"
	case secByASNNative:
		return "byasn"
	}
	return fmt.Sprintf("section-%d", id)
}
