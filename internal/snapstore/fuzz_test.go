package snapstore

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipleasing"
	"ipleasing/internal/faultgen"
	"ipleasing/internal/report"
	"ipleasing/internal/serve"
)

// FuzzDecode drives arbitrary bytes through both open paths a daemon
// serves from — Decode on the heap and OpenFile over a mapped file —
// and holds them to the reader's contract: reject with an error that
// wraps ErrCorrupt, or return a snapshot every query runs on without a
// panic. A pick of 0 takes the input as a whole file, which the
// checksums almost always reject. Any other pick names a section, and
// the input replaces that section's payload in an intact snapshot with
// every checksum recomputed, so the mutations reach the structural
// validation behind the CRCs.
func FuzzDecode(f *testing.F) {
	// A world small enough (~150 leaves, ~25 KB encoded) that the
	// mutator and every exec stay cheap.
	dir := f.TempDir()
	if err := ipleasing.Generate(ipleasing.Config{Seed: 21, Scale: 0.0002}).WriteDir(dir); err != nil {
		f.Fatal(err)
	}
	_, sum, res, err := ipleasing.LoadAndInfer(dir, ipleasing.LenientLoad(), ipleasing.Options{})
	if err != nil {
		f.Fatal(err)
	}
	intact := Encode(serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses), 5)
	secs, err := SectionRanges(intact)
	if err != nil {
		f.Fatal(err)
	}
	pickOf := map[string]uint8{}
	fsecs := make([]faultgen.SnapshotSection, len(secs))
	for i, s := range secs {
		pickOf[s.Name] = uint8(i + 1)
		fsecs[i] = faultgen.SnapshotSection{Name: s.Name, Off: s.Off, Len: s.Len}
		f.Add(intact[s.Off:s.Off+s.Len], uint8(i+1))
	}
	f.Add(intact, uint8(0))
	rnd := rand.New(rand.NewSource(1))
	for _, fault := range faultgen.SnapshotFaults(intact, fsecs) {
		damaged := fault.Apply(rnd, intact)
		f.Add(damaged, uint8(0))
		// A flipped section payload, patched back in with valid CRCs.
		if pick, ok := pickOf[strings.TrimPrefix(fault.Name, "flip-")]; ok {
			s := secs[pick-1]
			f.Add(damaged[s.Off:s.Off+s.Len], pick)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		file := data
		if k := int(pick) % (len(secs) + 1); k > 0 {
			file = patchSection(t, intact, secs[k-1].Name, func([]byte) []byte { return data })
		}
		if snap, _, err := Decode(file); err != nil {
			requireCorrupt(t, "Decode", err)
		} else {
			exercise(snap)
		}
		path := filepath.Join(t.TempDir(), "gen.snap")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		ld, err := OpenFile(path, OpenOptions{})
		if err != nil {
			requireCorrupt(t, "OpenFile", err)
			return
		}
		exercise(ld.Snap)
		ld.Snap.Release()
	})
}

func requireCorrupt(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: %v does not wrap ErrCorrupt", what, err)
	}
}

// exercise runs every query surface over an accepted snapshot: an
// address lookup per arena prefix, an ASN lookup per index entry, and
// Table 1, stored and re-rendered from the restored result.
func exercise(snap *serve.Snapshot) {
	for _, inf := range snap.FlatInferences() {
		snap.LookupAddr(inf.Prefix.First())
		snap.LookupPrefix(inf.Prefix)
	}
	for _, e := range snap.ASNView().Entries() {
		snap.LookupASN(e.ASN)
	}
	io.Discard.Write(snap.Table1())
	report.Table1(io.Discard, snap.Result)
}
