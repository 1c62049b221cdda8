package rpsl

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

const sampleDB = `
% This is a RIPE-style server banner comment.
# And a hash comment.

inetnum:        213.210.0.0 - 213.210.63.255
netname:        GCI-NET
org:            ORG-GCI1-RIPE
status:         ALLOCATED PA
mnt-by:         MNT-GCICOM
source:         RIPE

inetnum:        213.210.33.0 - 213.210.33.255
netname:        IPXO-LEASE
descr:          Leased out block # trailing comment
                second description line
status:         ASSIGNED PA
mnt-by:         IPXO-MNT
mnt-by:         MNT-GCICOM
source:         RIPE

aut-num:        AS8851
as-name:        GCI-AS
org:            ORG-GCI1-RIPE
source:         RIPE

organisation:   ORG-GCI1-RIPE
org-name:       GCI Network
+               (continuation with plus)
source:         RIPE
`

// names numbers every class and attribute name it is asked about, so a
// Keep built on it keeps everything.
type names []string

func (n *names) id(name []byte) int {
	for i, v := range *n {
		if v == string(name) {
			return i
		}
	}
	*n = append(*n, string(name))
	return len(*n) - 1
}

// keepAll returns a Scanner over data that keeps every class and
// attribute, and the names its ids stand for.
func keepAll(data []byte) (*Scanner, *names) {
	n := &names{}
	return NewScanner(data, Keep{Class: n.id, Attr: n.id}), n
}

// objects drains s into Objects named by n.
func objects(s *Scanner, n *names) ([]*Object, error) {
	var out []*Object
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		o := &Object{}
		for _, f := range rec.Fields {
			o.Attributes = append(o.Attributes, Attribute{Name: (*n)[f.Attr], Value: string(f.Value)})
		}
		out = append(out, o)
	}
}

// readAll scans every object of data, keeping every attribute.
func readAll(data []byte) ([]*Object, error) {
	return objects(keepAll(data))
}

// get returns the first value of the attribute named name.
func get(o *Object, name string) (string, bool) {
	for _, a := range o.Attributes {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

func TestReadAll(t *testing.T) {
	objs, err := readAll([]byte(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 {
		t.Fatalf("got %d objects, want 4", len(objs))
	}
	if objs[0].Attributes[0] != (Attribute{"inetnum", "213.210.0.0 - 213.210.63.255"}) {
		t.Fatalf("obj0 = %q", objs[0].Attributes[0])
	}
	if v, _ := get(objs[0], "status"); v != "ALLOCATED PA" {
		t.Fatalf("status = %q", v)
	}
	// Trailing comment stripped, continuation joined.
	if v, _ := get(objs[1], "descr"); v != "Leased out block second description line" {
		t.Fatalf("descr = %q", v)
	}
	// Repeated attributes preserved in order.
	var mnts []string
	for _, a := range objs[1].Attributes {
		if a.Name == "mnt-by" {
			mnts = append(mnts, a.Value)
		}
	}
	if len(mnts) != 2 || mnts[0] != "IPXO-MNT" || mnts[1] != "MNT-GCICOM" {
		t.Fatalf("mnt-by = %v", mnts)
	}
	// '+' continuation.
	if v, _ := get(objs[3], "org-name"); v != "GCI Network (continuation with plus)" {
		t.Fatalf("org-name = %q", v)
	}
	if objs[2].Attributes[0] != (Attribute{"aut-num", "AS8851"}) {
		t.Fatalf("obj2 = %q", objs[2].Attributes[0])
	}
}

func TestGetMissing(t *testing.T) {
	var r Record
	if _, ok := r.Get(0); ok {
		t.Fatal("Get on empty record")
	}
	if r.Key() != nil {
		t.Fatal("empty record key")
	}
	o := &Object{}
	o.Add("MNT-by", "X") // name should be lower-cased
	if v, ok := get(o, "mnt-by"); !ok || v != "X" {
		t.Fatal("Add did not lower-case name")
	}
}

func TestEmptyInput(t *testing.T) {
	objs, err := readAll([]byte(""))
	if err != nil || len(objs) != 0 {
		t.Fatalf("empty input: %v %v", objs, err)
	}
	objs, err = readAll([]byte("\n\n% only comments\n# more\n\n"))
	if err != nil || len(objs) != 0 {
		t.Fatalf("comment-only input: %v %v", objs, err)
	}
}

func TestNoTrailingNewline(t *testing.T) {
	objs, err := readAll([]byte("inetnum: 10.0.0.0 - 10.0.0.255\nstatus: ASSIGNED PA"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("objs=%v err=%v", objs, err)
	}
	if v, _ := get(objs[0], "status"); v != "ASSIGNED PA" {
		t.Fatal("lost last attribute without trailing newline")
	}
}

func TestMalformed(t *testing.T) {
	// Continuation before any attribute.
	if _, err := readAll([]byte("  dangling continuation\n")); err == nil {
		t.Fatal("dangling continuation accepted")
	}
	// Attribute line with no colon.
	if _, err := readAll([]byte("inetnum: 10.0.0.0 - 10.0.0.255\nnocolonhere\n")); err == nil {
		t.Fatal("missing colon accepted")
	}
	// Colon at position 0.
	if _, err := readAll([]byte(":empty name\n")); err == nil {
		t.Fatal("empty attribute name accepted")
	}
	// Space inside attribute name.
	if _, err := readAll([]byte("bad name: value\n")); err == nil {
		t.Fatal("attribute name with space accepted")
	}
}

func TestCommentInsideObject(t *testing.T) {
	in := "inetnum: 10.0.0.0 - 10.0.0.255\n# interior comment\nstatus: ASSIGNED PA\n"
	objs, err := readAll([]byte(in))
	if err != nil || len(objs) != 1 {
		t.Fatalf("objs=%v err=%v", objs, err)
	}
	if v, _ := get(objs[0], "status"); v != "ASSIGNED PA" {
		t.Fatal("comment inside object broke parsing")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	objs, err := readAll([]byte(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, o := range objs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	back, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(objs) {
		t.Fatalf("round trip count %d != %d", len(back), len(objs))
	}
	for i := range objs {
		if len(back[i].Attributes) != len(objs[i].Attributes) {
			t.Fatalf("obj %d attr count changed", i)
		}
		for j := range objs[i].Attributes {
			if back[i].Attributes[j] != objs[i].Attributes[j] {
				t.Fatalf("obj %d attr %d: %v != %v", i, j, back[i].Attributes[j], objs[i].Attributes[j])
			}
		}
	}
}

// Property: any object built from sane attribute names/values survives a
// write/read round trip.
func TestRoundTripQuick(t *testing.T) {
	sanitize := func(s string, name bool) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
				b.WriteRune(r)
			case !name && (r == ' ' || r == '.' || r == '/'):
				b.WriteRune(r)
			}
		}
		out := strings.TrimSpace(b.String())
		if out == "" {
			out = "x"
		}
		return out
	}
	f := func(names, values []string) bool {
		if len(names) == 0 {
			return true
		}
		o := &Object{}
		for i, n := range names {
			v := "v"
			if i < len(values) {
				v = sanitize(values[i], false)
			}
			o.Add(strings.ToLower(sanitize(n, true)), v)
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(o); err != nil {
			return false
		}
		back, err := readAll(buf.Bytes())
		if err != nil || len(back) != 1 {
			return false
		}
		if len(back[0].Attributes) != len(o.Attributes) {
			return false
		}
		for i := range o.Attributes {
			got, want := back[0].Attributes[i], o.Attributes[i]
			// Internal whitespace may be normalised only at the edges.
			if got.Name != want.Name || got.Value != strings.TrimSpace(want.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReaderSequential(t *testing.T) {
	s := NewScanner([]byte(sampleDB), Keep{Class: func([]byte) int { return 0 }, Attr: func([]byte) int { return -1 }})
	count := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 4 {
		t.Fatalf("sequential count = %d", count)
	}
	// Next after EOF keeps returning EOF.
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("post-EOF = %v", err)
	}
}

func BenchmarkScan(b *testing.B) {
	data := []byte(strings.Repeat(sampleDB, 100))
	keep := Keep{
		Class: func(name []byte) int {
			if string(name) == "inetnum" {
				return 0
			}
			return -1
		},
		Attr: func(name []byte) int {
			switch string(name) {
			case "status":
				return 0
			case "mnt-by":
				return 1
			}
			return -1
		},
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScanner(data, keep)
		for {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
