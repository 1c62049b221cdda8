package netutil

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.1", 0xc0000201, true},
		{"10.0.0.1", 0x0a000001, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"1.2.3.256", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
		{"01.2.3.4", 0, false}, // leading zero rejected
		{"1..3.4", 0, false},
		{"-1.2.3.4", 0, false},
		{" 1.2.3.4", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", c.in)
		}
	}
}

func TestAddrString(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "192.0.2.1", "10.20.30.40"} {
		a := MustParseAddr(s)
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestAddrStringRoundTripQuick(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := ParseAddr(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetipConversion(t *testing.T) {
	a := MustParseAddr("203.0.113.9")
	na := a.Netip()
	if na != netip.MustParseAddr("203.0.113.9") {
		t.Fatalf("Netip() = %v", na)
	}
	back, err := AddrFromNetip(na)
	if err != nil || back != a {
		t.Fatalf("AddrFromNetip = %v, %v", back, err)
	}
	if _, err := AddrFromNetip(netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Fatal("expected error for IPv6")
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.Base != MustParseAddr("192.0.2.0") || p.Len != 24 {
		t.Fatalf("bad parse: %+v", p)
	}
	if _, err := ParsePrefix("192.0.2.1/24"); err == nil {
		t.Fatal("host bits should be rejected")
	}
	lp, err := ParsePrefixLoose("192.0.2.1/24")
	if err != nil || lp != MustParsePrefix("192.0.2.0/24") {
		t.Fatalf("loose parse = %v, %v", lp, err)
	}
	for _, bad := range []string{"192.0.2.0", "192.0.2.0/33", "192.0.2.0/-1", "x/8", "1.2.3.4/"} {
		if _, err := ParsePrefixLoose(bad); err == nil {
			t.Errorf("ParsePrefixLoose(%q) succeeded", bad)
		}
	}
}

func TestPrefixStringRoundTripQuick(t *testing.T) {
	f := func(v uint32, l uint8) bool {
		p := Prefix{Base: Addr(v), Len: l % 33}.Canonicalize()
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendToMatchesString checks the append forms against the
// reference fmt rendering and that they extend, never overwrite, the
// destination.
func TestAppendToMatchesString(t *testing.T) {
	f := func(v uint32, l uint8) bool {
		a := Addr(v)
		p := Prefix{Base: a, Len: l % 33}.Canonicalize()
		quad := func(v uint32) string {
			return fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xff, v>>8&0xff, v&0xff)
		}
		wantA := quad(v)
		wantP := quad(uint32(p.Base)) + "/" + fmt.Sprint(p.Len)
		return string(a.AppendTo([]byte("x="))) == "x="+wantA && a.String() == wantA &&
			string(p.AppendTo([]byte("y="))) == "y="+wantP && p.String() == wantP
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [32]byte
		_ = MustParsePrefix("198.51.100.0/24").AppendTo(buf[:0])
	}); n != 0 {
		t.Errorf("Prefix.AppendTo into a large-enough buffer allocates %v times", n)
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if p.First() != MustParseAddr("10.0.0.0") || p.Last() != MustParseAddr("10.255.255.255") {
		t.Fatalf("first/last wrong: %v %v", p.First(), p.Last())
	}
	h := MustParsePrefix("192.0.2.5/32")
	if h.First() != h.Last() {
		t.Fatal("/32 first != last")
	}
	z := Prefix{}
	if z.First() != 0 || z.Last() != 0xffffffff {
		t.Fatal("/0 bounds wrong")
	}
}

func TestPrefixNumAddrs(t *testing.T) {
	if got := MustParsePrefix("10.0.0.0/8").NumAddrs(); got != 1<<24 {
		t.Fatalf("NumAddrs(/8) = %d", got)
	}
	if got := (Prefix{}).NumAddrs(); got != 1<<32 {
		t.Fatalf("NumAddrs(/0) = %d", got)
	}
	if got := MustParsePrefix("1.2.3.4/32").NumAddrs(); got != 1 {
		t.Fatalf("NumAddrs(/32) = %d", got)
	}
}

func TestContains(t *testing.T) {
	p := MustParsePrefix("198.51.100.0/24")
	if !p.Contains(MustParseAddr("198.51.100.0")) ||
		!p.Contains(MustParseAddr("198.51.100.255")) ||
		p.Contains(MustParseAddr("198.51.101.0")) ||
		p.Contains(MustParseAddr("198.51.99.255")) {
		t.Fatal("Contains boundaries wrong")
	}
}

func TestContainsPrefixAndOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.1.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.ContainsPrefix(b) || b.ContainsPrefix(a) {
		t.Fatal("ContainsPrefix wrong")
	}
	if !a.ContainsPrefix(a) {
		t.Fatal("prefix should contain itself")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) || a.Overlaps(c) {
		t.Fatal("Overlaps wrong")
	}
}

func TestParentHalvesBit(t *testing.T) {
	p := MustParsePrefix("192.0.2.128/25")
	if p.Parent() != MustParsePrefix("192.0.2.0/24") {
		t.Fatalf("Parent = %v", p.Parent())
	}
	if (Prefix{}).Parent() != (Prefix{}) {
		t.Fatal("Parent of /0 should be /0")
	}
	lo, hi := MustParsePrefix("192.0.2.0/24").Halves()
	if lo != MustParsePrefix("192.0.2.0/25") || hi != MustParsePrefix("192.0.2.128/25") {
		t.Fatalf("Halves = %v %v", lo, hi)
	}
	if p.Bit(24) != 1 {
		t.Fatal("Bit(24) of .128/25 should be 1")
	}
	if p.Bit(0) != 1 { // 192 = 0b11000000
		t.Fatal("Bit(0) of 192/... should be 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Halves of /32 should panic")
		}
	}()
	MustParsePrefix("1.2.3.4/32").Halves()
}

func TestSplitHalvesGuard(t *testing.T) {
	if _, _, ok := MustParsePrefix("1.2.3.4/32").SplitHalves(); ok {
		t.Fatal("SplitHalves of /32 reported ok")
	}
	lo, hi, ok := MustParsePrefix("192.0.2.6/31").SplitHalves()
	if !ok || lo != MustParsePrefix("192.0.2.6/32") || hi != MustParsePrefix("192.0.2.7/32") {
		t.Fatalf("SplitHalves(/31) = %v %v %v", lo, hi, ok)
	}
	// The panicking form and the total form must agree below /32.
	plo, phi := MustParsePrefix("192.0.2.6/31").Halves()
	if plo != lo || phi != hi {
		t.Fatalf("Halves disagrees with SplitHalves: %v %v", plo, phi)
	}
}

func TestHalvesReassembleQuick(t *testing.T) {
	f := func(v uint32, l uint8) bool {
		p := Prefix{Base: Addr(v), Len: l % 32}.Canonicalize() // never /32
		lo, hi := p.Halves()
		return lo.Parent() == p && hi.Parent() == p &&
			p.ContainsPrefix(lo) && p.ContainsPrefix(hi) &&
			!lo.Overlaps(hi) &&
			lo.NumAddrs()+hi.NumAddrs() == p.NumAddrs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAndSort(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("9.0.0.0/8"),
		MustParsePrefix("10.0.1.0/24"),
	}
	SortPrefixes(ps)
	want := []Prefix{
		MustParsePrefix("9.0.0.0/8"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.1.0/24"),
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("sort[%d] = %v, want %v", i, ps[i], want[i])
		}
	}
	if want[0].Compare(want[0]) != 0 {
		t.Fatal("Compare self != 0")
	}
}

func TestParseRange(t *testing.T) {
	r, err := ParseRange("192.0.2.0 - 192.0.2.255")
	if err != nil || r.First != MustParseAddr("192.0.2.0") || r.Last != MustParseAddr("192.0.2.255") {
		t.Fatalf("ParseRange = %+v, %v", r, err)
	}
	if _, err := ParseRange("192.0.2.255 - 192.0.2.0"); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := ParseRange("192.0.2.0"); err == nil {
		t.Fatal("missing dash accepted")
	}
	// no-space form
	r2, err := ParseRange("10.0.0.0-10.0.0.3")
	if err != nil || r2.NumAddrs() != 4 {
		t.Fatalf("no-space range: %+v %v", r2, err)
	}
	if r.String() != "192.0.2.0 - 192.0.2.255" {
		t.Fatalf("Range.String = %q", r.String())
	}
}

func TestRangeIsCIDR(t *testing.T) {
	r := RangeOf(MustParsePrefix("10.0.0.0/22"))
	p, ok := r.IsCIDR()
	if !ok || p != MustParsePrefix("10.0.0.0/22") {
		t.Fatalf("IsCIDR = %v %v", p, ok)
	}
	nr := Range{First: MustParseAddr("10.0.0.1"), Last: MustParseAddr("10.0.0.4")}
	if _, ok := nr.IsCIDR(); ok {
		t.Fatal("unaligned range reported as CIDR")
	}
}

func TestRangePrefixesKnown(t *testing.T) {
	cases := []struct {
		r    string
		want []string
	}{
		{"10.0.0.0 - 10.0.0.255", []string{"10.0.0.0/24"}},
		{"10.0.0.1 - 10.0.0.1", []string{"10.0.0.1/32"}},
		{"10.0.0.1 - 10.0.0.4", []string{"10.0.0.1/32", "10.0.0.2/31", "10.0.0.4/32"}},
		{"0.0.0.0 - 255.255.255.255", []string{"0.0.0.0/0"}},
		{"10.0.0.0 - 10.0.1.127", []string{"10.0.0.0/24", "10.0.1.0/25"}},
	}
	for _, c := range cases {
		r, err := ParseRange(c.r)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Prefixes()
		if len(got) != len(c.want) {
			t.Fatalf("Prefixes(%q) = %v, want %v", c.r, got, c.want)
		}
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Fatalf("Prefixes(%q)[%d] = %v, want %v", c.r, i, got[i], c.want[i])
			}
		}
	}
}

// Property: the CIDR decomposition exactly tiles the range — contiguous,
// in order, non-overlapping, covering precisely [First, Last].
func TestRangePrefixesCoverQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		r := Range{First: Addr(a), Last: Addr(b)}
		ps := r.Prefixes()
		if len(ps) == 0 {
			return false
		}
		cur := uint64(r.First)
		var total uint64
		for _, p := range ps {
			if !p.Canonical() {
				return false
			}
			if uint64(p.Base) != cur {
				return false
			}
			cur += p.NumAddrs()
			total += p.NumAddrs()
		}
		return total == r.NumAddrs() && cur == uint64(r.Last)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the decomposition is minimal — no two adjacent prefixes of the
// same length can merge into a valid aligned parent.
func TestRangePrefixesMinimalQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		ps := (Range{First: Addr(a), Last: Addr(b)}).Prefixes()
		for i := 0; i+1 < len(ps); i++ {
			p, q := ps[i], ps[i+1]
			if p.Len == q.Len && p.Len > 0 && p.Parent() == q.Parent() {
				return false // mergeable pair: not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRangePrefixesWraparoundTop(t *testing.T) {
	r := Range{First: MustParseAddr("255.255.255.0"), Last: MustParseAddr("255.255.255.255")}
	ps := r.Prefixes()
	if len(ps) != 1 || ps[0] != MustParsePrefix("255.255.255.0/24") {
		t.Fatalf("top range: %v", ps)
	}
}

func TestMaskAndCanonical(t *testing.T) {
	p := MustParsePrefix("172.16.0.0/12")
	if p.Mask() != MustParseAddr("255.240.0.0") {
		t.Fatalf("Mask = %v", p.Mask())
	}
	nc := Prefix{Base: MustParseAddr("10.0.0.1"), Len: 8}
	if nc.Canonical() {
		t.Fatal("non-canonical reported canonical")
	}
	if nc.Canonicalize() != MustParsePrefix("10.0.0.0/8") {
		t.Fatal("Canonicalize wrong")
	}
	over := Prefix{Base: 1, Len: 40}
	if got := over.Canonicalize(); got.Len != 32 {
		t.Fatalf("Canonicalize len>32 -> %v", got)
	}
}

func TestPrefixNetipRoundTrip(t *testing.T) {
	p := MustParsePrefix("100.64.0.0/10")
	np := p.Netip()
	if np != netip.MustParsePrefix("100.64.0.0/10") {
		t.Fatalf("Netip = %v", np)
	}
	back, err := PrefixFromNetip(np)
	if err != nil || back != p {
		t.Fatalf("PrefixFromNetip = %v, %v", back, err)
	}
	if _, err := PrefixFromNetip(netip.MustParsePrefix("2001:db8::/32")); err == nil {
		t.Fatal("IPv6 prefix accepted")
	}
}

func BenchmarkRangePrefixes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ranges := make([]Range, 1024)
	for i := range ranges {
		a, c := rng.Uint32(), rng.Uint32()
		if a > c {
			a, c = c, a
		}
		ranges[i] = Range{First: Addr(a), Last: Addr(c)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ranges[i%len(ranges)].Prefixes()
	}
}

func BenchmarkParsePrefix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = ParsePrefix("203.0.113.0/24")
	}
}

// FuzzParseRangeBytes holds the in-place range parse to ParseRange:
// the same range, or the same error.
func FuzzParseRangeBytes(f *testing.F) {
	for _, s := range []string{
		"192.0.2.0 - 192.0.2.255", "10.0.0.0-10.0.0.0", " 1.2.3.4\t-\t1.2.3.5 ",
		"1.2.3.4 - 1.2.3.1", "1.2.3.04 - 1.2.3.5", "256.0.0.0 - 256.0.0.1",
		"1.2.3.4", "1.2.3.4 -", " 1.2.3.4 - 1.2.3.5 ", "1.2.3.4.5 - 1.2.3.6", "0.0.0.0 - 255.255.255.255",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gerr := ParseRangeBytes(b)
		want, werr := ParseRange(string(b))
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("ParseRangeBytes(%q) = %v, %v; ParseRange = %v, %v", b, got, gerr, want, werr)
		}
	})
}
