package whois

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ipleasing/internal/diag"
	"ipleasing/internal/rpsl"
)

// The line rules every dialect's loader shares: where a line ends, what
// a blank line is, and what a lenient load makes of a bad one.

// loadText loads one registry's dump from text in its native dialect.
func loadText(reg Registry, text string, c *diag.Collector) (*Database, error) {
	switch reg {
	case ARIN:
		return LoadARINWith([]byte(text), c)
	case LACNIC:
		return LoadLACNICWith([]byte(text), c)
	default:
		return LoadRPSLWith(reg, []byte(text), c)
	}
}

// dialectSamples are small well-formed dumps, one per dialect.
var dialectSamples = map[Registry]string{
	RIPE: ripeSample,
	ARIN: "OrgID: EGIHOST\nOrgName: EGIHosting\nCountry: US\n\n" +
		"NetHandle: NET-198-51-100-0-1\nNetRange: 198.51.100.0 - 198.51.100.255\nNetType: Direct Allocation\nOrgID: EGIHOST\n",
	LACNIC: "inetnum: 200.160.0.0/20\nstatus: allocated\nowner: Radiografica\nownerid: CR-RACS-LACNIC\ncountry: CR\n",
}

func TestLineOverLimitAbortsEveryMode(t *testing.T) {
	long := strings.Repeat("x", rpsl.MaxLine-len("remarks: "))
	for reg, sample := range dialectSamples {
		// The longest line a dump may hold loads.
		if _, err := loadText(reg, sample+"\n"+"remarks: "+long+"\n", diag.NewCollector("t", diag.Strict())); err != nil {
			t.Errorf("%v: a line of %d bytes failed: %v", reg, rpsl.MaxLine, err)
		}
		// One byte more aborts, lenient or strict, newline or not.
		for _, tail := range []string{"x\n", "x", "\r\n"} {
			text := sample + "\n" + "remarks: " + long + tail
			for _, opts := range []diag.LoadOptions{diag.Strict(), diag.Lenient()} {
				if _, err := loadText(reg, text, diag.NewCollector("t", opts)); !errors.Is(err, rpsl.ErrLineTooLong) {
					t.Errorf("%v strict=%t tail %q: err = %v, want ErrLineTooLong", reg, opts.Strict, tail, err)
				}
			}
		}
	}
}

func TestCRLFLoadsAsLF(t *testing.T) {
	for reg, sample := range dialectSamples {
		lf, err := loadText(reg, sample, nil)
		if err != nil {
			t.Fatalf("%v: %v", reg, err)
		}
		crlf, err := loadText(reg, strings.ReplaceAll(sample, "\n", "\r\n"), nil)
		if err != nil {
			t.Fatalf("%v CRLF: %v", reg, err)
		}
		if a, b := writeText(t, lf), writeText(t, crlf); a != b {
			t.Errorf("%v: CRLF dump loads differently:\n%s\nvs LF:\n%s", reg, b, a)
		}
	}
}

// writeText renders db in its registry's dialect.
func writeText(t *testing.T, db *Database) string {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch db.Registry {
	case ARIN:
		err = WriteARIN(&buf, db)
	case LACNIC:
		err = WriteLACNIC(&buf, db)
	default:
		err = WriteRPSL(&buf, db)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestUnicodeSpaceLineEndsObject(t *testing.T) {
	// NBSP, EM SPACE and IDEOGRAPHIC SPACE: blank to bytes.TrimSpace.
	text := "inetnum: 192.0.2.0 - 192.0.2.255\n\u00a0\u2003\u3000\nnetname: NEXT-OBJECT\nstatus: ASSIGNED PA\n"
	c := diag.NewCollector("t", diag.Strict())
	db, err := loadText(RIPE, text, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.InetNums) != 1 || db.InetNums[0].NetName != "" || db.InetNums[0].Status != "" {
		t.Fatalf("inetnums = %+v, want one without the next object's attributes", db.InetNums)
	}
	if got := c.Report().Parsed; got != 2 {
		t.Fatalf("parsed %d records, want 2", got)
	}
}

func TestUnreadContinuationDropped(t *testing.T) {
	text := "inetnum: 192.0.2.0 - 192.0.2.255\nremarks: first\n  continued remark\n+ and more\n" +
		"netname: KEPT\n\tkept continuation\nsource: RIPE\n+ TEST\n"
	db, err := loadText(RIPE, text, diag.NewCollector("t", diag.Strict()))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.InetNums[0].NetName; got != "KEPT kept continuation" {
		t.Fatalf("netname = %q", got)
	}
}

func TestLenientSkippedFirstLineMakesNextAttributeTheClass(t *testing.T) {
	cases := []struct {
		text     string
		inetnums int
	}{
		{"FAULTGEN GARBAGE 0\ninetnum: 192.0.2.0 - 192.0.2.255\nnetname: N\n", 1},
		{"FAULTGEN GARBAGE 0\nnetname: N\ninetnum: 192.0.2.0 - 192.0.2.255\n", 0},
	}
	for _, tc := range cases {
		if _, err := loadText(RIPE, tc.text, diag.NewCollector("t", diag.Strict())); err == nil ||
			!strings.Contains(err.Error(), "line 1:") {
			t.Errorf("strict load of %q: err = %v, want a line 1 error", tc.text, err)
		}
		c := diag.NewCollector("t", diag.Lenient())
		db, err := loadText(RIPE, tc.text, c)
		if err != nil {
			t.Fatal(err)
		}
		rep := c.Report()
		if len(db.InetNums) != tc.inetnums || rep.Parsed != 1 || rep.Skipped != 1 {
			t.Errorf("lenient load of %q: %d inetnums, %s; want %d inetnums, 1 parsed, 1 skipped",
				tc.text, len(db.InetNums), rep, tc.inetnums)
		}
	}
}
