package rpsl

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Robustness: arbitrary text input never panics the scanner; it either
// yields objects or an error.
func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(s string) bool {
		_, _ = readAll([]byte(s))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Robustness: random line soup assembled from RPSL-ish fragments parses
// or errors deterministically, and any parsed object round-trips.
func TestFragmentSoup(t *testing.T) {
	fragments := []string{
		"inetnum:        10.0.0.0 - 10.0.0.255",
		"mnt-by: SOME-MNT",
		"+ continuation",
		"   indented continuation",
		"# comment",
		"% server comment",
		"",
		"no-colon-line",
		"status: ASSIGNED PA",
		": empty-name",
	}
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(fragments[rng.Intn(len(fragments))])
			b.WriteByte('\n')
		}
		objs, err := readAll([]byte(b.String()))
		if err != nil {
			continue
		}
		for _, o := range objs {
			var buf strings.Builder
			w := NewWriter(&buf)
			if werr := w.Write(o); werr != nil {
				t.Fatalf("write after parse: %v", werr)
			}
			back, rerr := readAll([]byte(buf.String()))
			if rerr != nil || len(back) != 1 {
				t.Fatalf("re-parse failed: %v (input %q)", rerr, buf.String())
			}
		}
	}
}

// testKeep reads an inetnum-centred subset, with "inetnum" also a kept
// attribute so a class line that is itself a kept field is exercised.
var (
	testClasses = []string{"inetnum", "aut-num", "organisation", "mntner"}
	testAttrs   = []string{"inetnum", "status", "org", "netname", "country", "mnt-by", "descr"}
	testKeep    = Keep{Class: indexOf(testClasses), Attr: indexOf(testAttrs)}
)

func indexOf(names []string) func([]byte) int {
	return func(name []byte) int {
		for i, n := range names {
			if string(name) == n {
				return i
			}
		}
		return -1
	}
}

// scanned is what one scan of a dump yields: the records' kept fields,
// the bad lines a lenient scan skipped, and the error that ended it.
type scanned struct {
	objs []*Object // nil entry: a record of a class nobody reads
	bad  []string
	err  string
}

// fieldsObject renders a record's kept fields as an Object named by the
// test keep-set; the class line keeps its class name.
func fieldsObject(rec *Record) *Object {
	o := &Object{}
	for i, f := range rec.Fields {
		name := testClasses[rec.Class]
		if i > 0 {
			name = testAttrs[f.Attr]
		}
		o.Attributes = append(o.Attributes, Attribute{Name: name, Value: string(f.Value)})
	}
	return o
}

func scanAll(data []byte, lenient bool) scanned {
	var out scanned
	s := NewScanner(data, testKeep)
	if lenient {
		s.OnBadLine = func(line int, err error) error {
			out.bad = append(out.bad, fmt.Sprintf("%d: %v", line, err))
			return nil
		}
	}
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			out.err = err.Error()
			return out
		}
		if rec.Class < 0 {
			out.objs = append(out.objs, nil)
			continue
		}
		out.objs = append(out.objs, fieldsObject(rec))
	}
}

// fuzzSeeds are TestFragmentSoup's fragments, faultgen's garbage lines
// and the line rules' edge cases: CRLF, Unicode blanks, unread
// continuations, names that lower-case only through Unicode.
var fuzzSeeds = []string{
	"inetnum:        10.0.0.0 - 10.0.0.255\nmnt-by: SOME-MNT\n+ continuation\n   indented continuation\n# comment\n% server comment\n\nno-colon-line\nstatus: ASSIGNED PA\n: empty-name\n",
	"inetnum: 192.0.2.0 - 192.0.2.255\nnetname: GOOD\nFAULTGEN GARBAGE aa209b8e\nstatus: ASSIGNED PA\n",
	"FAULTGEN GARBAGE 6cb50b02\ninetnum: 192.0.2.0 - 192.0.2.255\nnetname: N\n",
	"inetnum: 10.0.0.0 - 10.0.0.255\r\nnetname: CRLF\r\n\r\nmntner: M\r\n",
	"inetnum: 10.0.0.0 - 10.0.0.255\n\u00a0\u2003\u3000\nnetname: AFTER-UNICODE-BLANK\n",
	"\u0085% comment after NEL\n\u00a0inetnum: 1.2.3.4 - 1.2.3.4\n\u212aOUNTRY: k\n",
	"inetnum: 10.0.0.0 - 10.0.0.255\nremarks: unread\n  unread continuation\nnetname: N\n\tmore # comment\n",
	"İNETNUM: 10.0.0.0 - 10.0.0.255\nNetName: X\nMNT-BY:\n+ late value\n",
	"organisation: ORG-1\norg-name: X\ndescr:\n descr value\n+ second\n\n\n",
	"\v: odd\n\r\nstatus:ok",
	"aut-num: AS1\n \x0b\n\tinetnum: 1.2.3.4 - 1.2.3.5\n",
	"inetnum: \xff\xfe - x\nNETNAME\xff: v\n\rstatus: s\r\r\n",
}

// FuzzScan holds the scanner to three properties on any input: it
// never panics; a dump that scans strictly scans leniently to the same
// records with no line skipped; and every kept record, written back
// with Writer, scans to itself.
func FuzzScan(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readAll(data)
		strict, lenient := scanAll(data, false), scanAll(data, true)
		if strict.err != "" {
			return
		}
		if !reflect.DeepEqual(strict.objs, lenient.objs) || len(lenient.bad) != 0 || lenient.err != "" {
			t.Fatalf("strict scan of %q succeeds, lenient differs:\nstrict:  %s\nlenient: %s",
				data, dumpScanned(strict), dumpScanned(lenient))
		}
		for _, o := range strict.objs {
			if o == nil {
				continue
			}
			var buf bytes.Buffer
			if err := NewWriter(&buf).Write(o); err != nil {
				t.Fatal(err)
			}
			if buf.Len() > MaxLine {
				continue // a joined value too long to write on one line
			}
			back := scanAll(buf.Bytes(), false)
			if back.err != "" || len(back.objs) != 1 || !reflect.DeepEqual(back.objs[0], o) {
				t.Fatalf("kept record %q written as %q scans back as %s", o.Attributes, buf.Bytes(), dumpScanned(back))
			}
		}
	})
}

func dumpScanned(s scanned) string {
	var b strings.Builder
	for _, o := range s.objs {
		if o == nil {
			b.WriteString("{unread} ")
			continue
		}
		fmt.Fprintf(&b, "%q ", o.Attributes)
	}
	fmt.Fprintf(&b, "bad=%q err=%q", s.bad, s.err)
	return b.String()
}
