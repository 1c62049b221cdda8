package arinwhois

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
		Nets: []*Net{
			{
				Handle: "NET-192-0-2-0-1", OrgID: "EXAMPLE-1", Name: "EXAMPLE-NET",
				Range: netutil.Range{
					First: netutil.MustParseAddr("192.0.2.0"),
					Last:  netutil.MustParseAddr("192.0.2.255"),
				},
				Type: NetTypeDirectAllocation, RegDate: "2001-05-14", Country: "US",
			},
			{
				Handle: "NET-192-0-2-0-2", OrgID: "EXAMPLE-2", Parent: "NET-192-0-2-0-1",
				Name: "EXAMPLE-SUB",
				Range: netutil.Range{
					First: netutil.MustParseAddr("192.0.2.0"),
					Last:  netutil.MustParseAddr("192.0.2.127"),
				},
				Type: NetTypeReallocation, RegDate: "2012-09-30", Country: "US",
			},
		},
		ASes: []*AS{{Handle: "AS64500", Number: 64500, OrgID: "EXAMPLE-1", Name: "EXAMPLE-AS"}},
		Orgs: []*Org{
			{ID: "EXAMPLE-1", Name: "Example Networks", Country: "US"},
			{ID: "EXAMPLE-2", Name: "Example Leasing", Country: "CA"},
		},
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
	f.Add("NetHandle: NET-198-51-100-0-1\nNetRange: 198.51.100.0 - 198.51.100.255\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		db, err := Parse([]byte(s))
		// Lenient parsing with the breaker disabled must never be
		// stricter than fail-fast parsing, and must never error itself.
		c := diag.NewCollector("arin", diag.LoadOptions{MaxErrorRate: -1})
		ldb, lerr := ParseWith([]byte(s), c)
		if lerr != nil {
			t.Fatalf("lenient parse failed: %v", lerr)
		}
		if err != nil {
			return
		}
		if len(ldb.Nets) != len(db.Nets) || len(ldb.ASes) != len(db.ASes) || len(ldb.Orgs) != len(db.Orgs) {
			t.Fatalf("lenient parse of clean input differs: %d/%d/%d vs %d/%d/%d",
				len(ldb.Nets), len(ldb.ASes), len(ldb.Orgs), len(db.Nets), len(db.ASes), len(db.Orgs))
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
		if len(back.Nets) != len(db.Nets) || len(back.ASes) != len(db.ASes) || len(back.Orgs) != len(db.Orgs) {
			t.Fatalf("round trip changed record counts")
		}
	})
}
