package lacnicwhois

import (
	"bytes"
	"strings"
	"testing"

	"ipleasing/internal/netutil"
)

const sample = `
inetnum:     200.160.0.0/20
status:      allocated
owner:       Radiografica Costarricense
ownerid:     CR-RACS-LACNIC
country:     CR

inetnum:     200.160.4.0/24
status:      reassigned
owner:       Cliente Final SA
ownerid:     CR-CFSA-LACNIC
country:     CR

aut-num:     AS27700
owner:       Radiografica Costarricense
ownerid:     CR-RACS-LACNIC
`

func TestParse(t *testing.T) {
	db, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Blocks) != 2 || len(db.ASNs) != 1 {
		t.Fatalf("counts: %d blocks %d asns", len(db.Blocks), len(db.ASNs))
	}
	b := db.Blocks[0]
	if b.Prefix != netutil.MustParsePrefix("200.160.0.0/20") || b.Status != StatusAllocated ||
		b.OwnerID != "CR-RACS-LACNIC" || b.Country != "CR" {
		t.Fatalf("block = %+v", b)
	}
	if db.Blocks[1].Status != StatusReassigned {
		t.Fatalf("status = %q", db.Blocks[1].Status)
	}
	a := db.ASNs[0]
	if a.Number != 27700 || a.OwnerID != "CR-RACS-LACNIC" {
		t.Fatalf("asn = %+v", a)
	}
}

func TestParseStatusCaseInsensitive(t *testing.T) {
	db, err := Parse([]byte("inetnum: 10.0.0.0/8\nstatus: ALLOCATED\nownerid: X\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Blocks[0].Status != StatusAllocated {
		t.Fatalf("status = %q", db.Blocks[0].Status)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"inetnum: 10.0.0.0/8\nownerid: X\n",                // missing status
		"inetnum: 10.0.0.0/8\nstatus: bogus\nownerid: X\n", // unknown status
		"inetnum: 10.0.0.0/8\nstatus: allocated\n",         // missing ownerid
		"inetnum: not-a-prefix\nstatus: allocated\nownerid: X\n",
		"aut-num: ASNOPE\nownerid: X\n", // bad ASN
		"aut-num: AS65000\n",            // missing ownerid
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
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
	if len(back.Blocks) != len(db.Blocks) || len(back.ASNs) != len(db.ASNs) {
		t.Fatal("round-trip counts differ")
	}
	for i := range db.Blocks {
		if *back.Blocks[i] != *db.Blocks[i] {
			t.Fatalf("block %d: %+v != %+v", i, back.Blocks[i], db.Blocks[i])
		}
	}
	for i := range db.ASNs {
		if *back.ASNs[i] != *db.ASNs[i] {
			t.Fatalf("asn %d differs", i)
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
