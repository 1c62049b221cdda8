package arinwhois

import (
	"bytes"
	"strings"
	"testing"

	"ipleasing/internal/netutil"
)

const sample = `
OrgID:        EGIHOST
OrgName:      EGIHosting
Country:      US

OrgID:        PSINET
OrgName:      PSINet, Inc.
Country:      US

ASHandle:     AS64500
ASNumber:     64500
ASName:       EGI-AS
OrgID:        EGIHOST

NetHandle:    NET-198-51-100-0-1
NetRange:     198.51.100.0 - 198.51.100.255
NetName:      EGI-NET-1
NetType:      Direct Allocation
OrgID:        EGIHOST
RegDate:      2015-03-02

NetHandle:    NET-198-51-100-0-2
NetRange:     198.51.100.0 - 198.51.100.127
NetName:      CUSTOMER-1
NetType:      Reassignment
OrgID:        CUST1
Parent:       NET-198-51-100-0-1
`

func TestParse(t *testing.T) {
	db, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Orgs) != 2 || len(db.ASes) != 1 || len(db.Nets) != 2 {
		t.Fatalf("counts: %d orgs %d ases %d nets", len(db.Orgs), len(db.ASes), len(db.Nets))
	}
	if db.Orgs[1].Name != "PSINet, Inc." {
		t.Fatalf("org name = %q", db.Orgs[1].Name)
	}
	a := db.ASes[0]
	if a.Number != 64500 || a.OrgID != "EGIHOST" || a.Name != "EGI-AS" {
		t.Fatalf("as = %+v", a)
	}
	n := db.Nets[0]
	if n.Handle != "NET-198-51-100-0-1" || n.Type != NetTypeDirectAllocation || n.OrgID != "EGIHOST" {
		t.Fatalf("net = %+v", n)
	}
	want := netutil.Range{
		First: netutil.MustParseAddr("198.51.100.0"),
		Last:  netutil.MustParseAddr("198.51.100.255"),
	}
	if n.Range != want {
		t.Fatalf("range = %v", n.Range)
	}
	if db.Nets[1].Parent != "NET-198-51-100-0-1" || db.Nets[1].Type != NetTypeReassignment {
		t.Fatalf("child net = %+v", db.Nets[1])
	}
}

func TestParseASNumberFromHandle(t *testing.T) {
	db, err := Parse([]byte("ASHandle: AS65001\nASName: X\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.ASes[0].Number != 65001 {
		t.Fatalf("number = %d", db.ASes[0].Number)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"NetHandle: NET-X\nNetName: no-range\n",                 // missing NetRange
		"NetHandle: NET-X\nNetRange: 1.2.3.4 - 1.2.3.1\n",       // inverted range
		"ASHandle: ASXYZ\nASNumber: notanumber\n",               // bad ASNumber
		"OrgID: O1\nCountry: US\n",                              // missing OrgName
		"NetHandle: NET-X\nNetRange: 300.0.0.0 - 300.0.0.255\n", // bad address
		"ASHandle: ASFOO\n",                                     // handle not numeric, no ASNumber
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestUnknownClassSkipped(t *testing.T) {
	db, err := Parse([]byte("POCHandle: P-1\nName: Somebody\n\nOrgID: O1\nOrgName: X\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Orgs) != 1 {
		t.Fatalf("orgs = %d", len(db.Orgs))
	}
}

func TestWriteRoundTrip(t *testing.T) {
	db, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if len(back.Orgs) != len(db.Orgs) || len(back.ASes) != len(db.ASes) || len(back.Nets) != len(db.Nets) {
		t.Fatal("round-trip counts differ")
	}
	for i := range db.Nets {
		if *back.Nets[i] != *db.Nets[i] {
			t.Fatalf("net %d: %+v != %+v", i, back.Nets[i], db.Nets[i])
		}
	}
	for i := range db.ASes {
		if *back.ASes[i] != *db.ASes[i] {
			t.Fatalf("as %d differs", i)
		}
	}
	for i := range db.Orgs {
		if *back.Orgs[i] != *db.Orgs[i] {
			t.Fatalf("org %d differs", i)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	data := strings.Repeat(sample, 200)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse([]byte(data)); err != nil {
			b.Fatal(err)
		}
	}
}
