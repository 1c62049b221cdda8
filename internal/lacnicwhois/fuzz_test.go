package lacnicwhois

import (
	"bytes"
	"testing"

	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
)

// fuzzSeedDump renders a small database through the package's own writer,
// so the seed corpus is a well-formed dump in the exact dialect Parse
// expects. synth produces the same shape but cannot be imported here
// (synth depends on whois, which depends on this package).
func fuzzSeedDump(tb testing.TB) []byte {
	db := &Database{
		Blocks: []*Block{
			{
				Prefix: netutil.MustParsePrefix("200.0.2.0/24"),
				Status: StatusAllocated, Owner: "Ejemplo Redes", OwnerID: "EJ-EMPLO1", Country: "BR",
			},
			{
				Prefix: netutil.MustParsePrefix("200.0.2.0/25"),
				Status: StatusReassigned, Owner: "Ejemplo Cliente", OwnerID: "EJ-EMPLO2", Country: "AR",
			},
		},
		ASNs: []*ASN{{Number: 64500, Owner: "Ejemplo Redes", OwnerID: "EJ-EMPLO1"}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzParse(f *testing.F) {
	seed := fuzzSeedDump(f)
	f.Add(string(seed))
	f.Add(string(seed[:len(seed)/2]))
	f.Add("inetnum: 203.0.113.0/24\nstatus: allocated\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		db, err := Parse([]byte(s))
		// Lenient parsing with the breaker disabled must never be
		// stricter than fail-fast parsing, and must never error itself.
		c := diag.NewCollector("lacnic", diag.LoadOptions{MaxErrorRate: -1})
		ldb, lerr := ParseWith([]byte(s), c)
		if lerr != nil {
			t.Fatalf("lenient parse failed: %v", lerr)
		}
		if err != nil {
			return
		}
		if len(ldb.Blocks) != len(db.Blocks) || len(ldb.ASNs) != len(db.ASNs) {
			t.Fatalf("lenient parse of clean input differs: %d/%d vs %d/%d",
				len(ldb.Blocks), len(ldb.ASNs), len(db.Blocks), len(db.ASNs))
		}
		if rep := c.Report(); rep.Skipped != 0 {
			t.Fatalf("lenient parse skipped %d records on input strict accepts", rep.Skipped)
		}
		// Write/Parse round trip: what we parsed, we can restate.
		var buf bytes.Buffer
		if werr := Write(&buf, db); werr != nil {
			t.Fatalf("write of parsed database: %v", werr)
		}
		back, perr := Parse(buf.Bytes())
		if perr != nil {
			t.Fatalf("re-parse of written database: %v", perr)
		}
		if len(back.Blocks) != len(db.Blocks) || len(back.ASNs) != len(db.ASNs) {
			t.Fatalf("round trip changed record counts")
		}
	})
}
