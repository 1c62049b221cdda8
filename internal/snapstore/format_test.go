package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"ipleasing"
	"ipleasing/internal/serve"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot(t)
	data := Encode(want, 42)

	gen, err := ReadGeneration(data)
	if err != nil {
		t.Fatalf("ReadGeneration: %v", err)
	}
	if gen != 42 {
		t.Fatalf("generation = %d, want 42", gen)
	}

	got, gen, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gen != 42 {
		t.Fatalf("decoded generation = %d, want 42", gen)
	}
	if mode := got.LoadMode(); mode != serve.LoadModeHeap {
		t.Fatalf("decoded LoadMode = %q, want %q", mode, serve.LoadModeHeap)
	}
	assertServesIdentical(t, "decoded", got, want)
}

// TestEncodePinnedBytes pins the encoding of a seeded world byte for
// byte, by digest: the encoder may change how it builds the sections,
// never what it writes. A deliberate layout change alters the digest
// and must come with a FormatVersion bump.
func TestEncodePinnedBytes(t *testing.T) {
	const (
		wantLen    = 413117
		wantSHA256 = "02bfd3b238e74acc987788eb792cce5bf39eb162b6dccf65bbd160d964650bad"
	)
	dir := t.TempDir()
	if err := ipleasing.Generate(ipleasing.Config{Seed: 7, Scale: 0.004}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	_, sum, res, err := ipleasing.LoadAndInfer(dir, ipleasing.LenientLoad(), ipleasing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No reports: theirs carry the temporary directory's file names.
	data := Encode(serve.NewSnapshot(res, nil, sum.SkippedAnalyses), 1)
	sum256 := sha256.Sum256(data)
	if got := hex.EncodeToString(sum256[:]); len(data) != wantLen || got != wantSHA256 {
		t.Fatalf("encoding is %d bytes with SHA-256 %s, want %d bytes with %s", len(data), got, wantLen, wantSHA256)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	snap := testSnapshot(t)
	a, b := Encode(snap, 7), Encode(snap, 7)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same snapshot differ")
	}
}

// TestDecodeRejectsBitFlips flips one bit at a sweep of positions —
// header, section table, every payload, trailing checksum — and
// requires every flip to be rejected. The whole-file CRC makes this a
// guarantee, not a sampling hope, but the sweep also exercises the
// rejection paths beneath it.
func TestDecodeRejectsBitFlips(t *testing.T) {
	data := Encode(testSnapshot(t), 3)
	rnd := rand.New(rand.NewSource(1))
	stride := len(data)/257 + 1
	for off := 0; off < len(data); off += stride {
		mut := append([]byte(nil), data...)
		mut[off] ^= 1 << uint(rnd.Intn(8))
		if _, _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at offset %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(testSnapshot(t), 3)
	cuts := []int{0, 1, 7, 8, 23, 24, headerSize + 3*sectionEntrySize,
		len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		if _, _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// refixCRC recomputes the whole-file checksum after a deliberate patch,
// so tests can reach the validation layers beneath it.
func refixCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := len(out) - 4
	binary.LittleEndian.PutUint32(out[body:], crc32.Checksum(out[:body], castagnoli))
	return out
}

// stampVersion re-stamps an encoded snapshot's format version and
// re-fixes the file CRC, so the version check is the only thing that
// can reject it.
func stampVersion(data []byte, ver uint32) []byte {
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[8:12], ver)
	return refixCRC(mut)
}

// TestDecodeRejectsWrongVersion: only FormatVersion decodes. The
// previous version (2) and any future one are the same typed rejection.
func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := Encode(testSnapshot(t), 3)
	for _, ver := range []uint32{2, FormatVersion + 1} {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			_, _, err := Decode(stampVersion(data, ver))
			if !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d: got %v, want ErrBadVersion", ver, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("version %d: %v does not wrap ErrCorrupt", ver, err)
			}
		})
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := Encode(testSnapshot(t), 3)
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, _, err := Decode(refixCRC(mut)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
}

// patchSection replaces one section's payload in an encoded snapshot,
// recomputing the section CRC, the table offsets, and the file CRC —
// producing a checksum-valid file whose structural contents are wrong.
// This is how the tests reach the deep validation (bounds checks,
// allocation-bomb guards, cross-section consistency) that the CRCs
// would otherwise shadow.
func patchSection(t *testing.T, data []byte, name string, mutate func(payload []byte) []byte) []byte {
	t.Helper()
	secs, err := SectionRanges(data)
	if err != nil {
		t.Fatal(err)
	}
	gen := binary.LittleEndian.Uint64(data[12:20])
	type sec struct {
		id      uint32
		payload []byte
	}
	var out []sec
	found := false
	for i, s := range secs {
		e := data[headerSize+i*sectionEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:4])
		payload := append([]byte(nil), data[s.Off:s.Off+s.Len]...)
		if s.Name == name {
			payload = mutate(payload)
			found = true
		}
		out = append(out, sec{id, payload})
	}
	if !found {
		t.Fatalf("no section %q", name)
	}
	b := make([]byte, 0, len(data))
	b = append(b, magic...)
	b = appendU32(b, FormatVersion)
	b = appendU64(b, gen)
	b = appendU32(b, uint32(len(out)))
	// v3 payloads must sit at 8-aligned offsets, same as encodeFile.
	offs := make([]int, len(out))
	off := headerSize + len(out)*sectionEntrySize
	for i, s := range out {
		off = (off + 7) &^ 7
		offs[i] = off
		b = appendU32(b, s.id)
		b = appendU64(b, uint64(off))
		b = appendU64(b, uint64(len(s.payload)))
		b = appendU32(b, crc32.Checksum(s.payload, castagnoli))
		off += len(s.payload)
	}
	for i, s := range out {
		for len(b) < offs[i] {
			b = append(b, 0)
		}
		b = append(b, s.payload...)
	}
	return appendU32(b, crc32.Checksum(b, castagnoli))
}

func TestDecodeRejectsStructuralDamage(t *testing.T) {
	data := Encode(testSnapshot(t), 3)
	cases := []struct {
		name    string
		section string
		mutate  func(payload []byte) []byte
	}{
		{"records-count-bomb", "records", func(p []byte) []byte {
			// Claim 2^32-1 records in a payload that holds far fewer: the
			// fixed-width length check must refuse before allocating.
			out := append([]byte(nil), p...)
			binary.LittleEndian.PutUint32(out[0:4], 0xffffffff)
			return out
		}},
		{"byasn-index-out-of-arena", "byasn", func(p []byte) []byte {
			// One ASN entry whose single arena index points far past the
			// arena.
			out := appendU32(nil, 1) // entry count
			out = appendU32(out, 1)  // slab length
			out = appendU32(out, 64512)
			out = appendU32(out, 0)
			out = appendU32(out, 1)
			return appendU32(out, 1<<30)
		}},
		{"strtab-run-out-of-blob", "strtab", func(p []byte) []byte {
			// First string's (off, len) run reaches past the blob.
			out := append([]byte(nil), p...)
			binary.LittleEndian.PutUint32(out[12:16], 0xffff0000)
			return out
		}},
		{"strrefs-id-out-of-table", "strrefs", func(p []byte) []byte {
			// A facilitator reference naming a string ID the table lacks.
			out := append([]byte(nil), p...)
			if binary.LittleEndian.Uint32(out[0:4]) == 0 {
				// No facilitators in the fixture: add one dangling ref.
				binary.LittleEndian.PutUint32(out[0:4], 1)
				out = appendU32(out, 0xffffff00)
			} else {
				binary.LittleEndian.PutUint32(out[8:12], 0xffffff00)
			}
			return out
		}},
		{"lpm-garbage", "lpm", func(p []byte) []byte {
			return []byte{0xff, 0xff, 0xff}
		}},
		{"meta-arena-length-mismatch", "meta", func(p []byte) []byte {
			// builtAt u64, totalBGP uvarint, routedSpace u64, arenaLen uvarint.
			out := append([]byte(nil), p[:8]...)
			rest := p[8:]
			v, n := binary.Uvarint(rest) // totalBGP
			out = binary.AppendUvarint(out, v)
			rest = rest[n:]
			out = append(out, rest[:8]...) // routedSpace
			rest = rest[8:]
			_, n = binary.Uvarint(rest) // arenaLen — replace with a lie
			out = binary.AppendUvarint(out, 5)
			return append(out, rest[n:]...)
		}},
		{"reports-trailing-garbage", "reports", func(p []byte) []byte {
			return append(append([]byte(nil), p...), 0xde, 0xad)
		}},
		{"records-bad-category", "records", func(p []byte) []byte {
			out := append([]byte(nil), p...)
			out[8+53] = 0xee // first record's category byte
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := patchSection(t, data, tc.section, tc.mutate)
			if _, _, err := Decode(mut); err == nil {
				t.Fatal("structurally damaged snapshot accepted")
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

func TestReadGenerationRejectsDamage(t *testing.T) {
	data := Encode(testSnapshot(t), 9)
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x10
	if _, err := ReadGeneration(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGeneration on damaged file: %v, want ErrCorrupt", err)
	}
	if _, err := ReadGeneration(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadGeneration on empty file: %v, want ErrTruncated", err)
	}
}
