package faultgen

import "math/rand"

// SnapshotFault is one deterministic way to damage an encoded snapshot:
// Apply takes the intact bytes and returns the damaged copy. Every
// fault produced by SnapshotFaults yields bytes the snapstore decoder
// MUST reject — a fault that still decodes is a codec hole, and the
// tests treat it as one.
type SnapshotFault struct {
	Name  string
	Apply func(rnd *rand.Rand, data []byte) []byte
}

// SnapshotSection is one byte range of an encoded snapshot to target
// with a flip fault. Callers enumerate them with
// snapstore.SectionRanges; faultgen deliberately does not import
// snapstore (it sits below the serving stack so serve's own tests can
// use it), so the section table is an input, not a lookup.
type SnapshotSection struct {
	Name string
	Off  int
	Len  int
}

// SnapshotFaults enumerates the damage matrix for one encoded snapshot:
// tail truncation at a random cut, a bit flip inside the header, inside
// every individual section payload, and in the whole-file checksum,
// plus full-file garbage and an empty file. The set is derived from the
// snapshot's own section table, so a format gaining a section
// automatically gains its flip fault.
func SnapshotFaults(data []byte, secs []SnapshotSection) []SnapshotFault {
	flipAt := func(off, length int) func(rnd *rand.Rand, data []byte) []byte {
		return func(rnd *rand.Rand, data []byte) []byte {
			out := append([]byte(nil), data...)
			i := off
			if length > 1 {
				i += rnd.Intn(length)
			}
			out[i] ^= 1 << uint(rnd.Intn(8))
			return out
		}
	}
	faults := []SnapshotFault{
		{Name: "truncate-tail", Apply: func(rnd *rand.Rand, data []byte) []byte {
			cut := 1 + rnd.Intn(len(data)-1)
			return append([]byte(nil), data[:cut]...)
		}},
		{Name: "flip-header", Apply: flipAt(0, 24)},
		{Name: "flip-footer-crc", Apply: flipAt(len(data)-4, 4)},
		{Name: "empty-file", Apply: func(rnd *rand.Rand, data []byte) []byte {
			return nil
		}},
		{Name: "garbage-file", Apply: func(rnd *rand.Rand, data []byte) []byte {
			out := make([]byte, 64+rnd.Intn(256))
			rnd.Read(out)
			return out
		}},
	}
	for _, sec := range secs {
		if sec.Len == 0 {
			continue
		}
		faults = append(faults, SnapshotFault{
			Name:  "flip-" + sec.Name,
			Apply: flipAt(sec.Off, sec.Len),
		})
	}
	return faults
}
