// Package netutil provides IPv4 prefix and address-range arithmetic used
// throughout the leasing-inference pipeline.
//
// The package deliberately represents IPv4 addresses as uint32 and prefixes
// as a (base, length) pair rather than using net/netip: the inference
// pipeline stores millions of prefixes in tries and maps, and a fixed
// 8-byte comparable value keeps those structures compact and allocation
// free. Conversion helpers to and from netip.Prefix are provided for
// interoperability at API boundaries.
package netutil

import (
	"fmt"
	"math/bits"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netutil: invalid IPv4 address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 32)
		if err != nil || v > 255 || tok == "" || (len(tok) > 1 && tok[0] == '0') {
			return 0, fmt.Errorf("netutil: invalid IPv4 address %q", s)
		}
		parts[i] = uint32(v)
	}
	return Addr(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseAddr is like ParseAddr but panics on error. For tests and
// compile-time-constant-like initialisation of known-good literals only;
// code parsing external input must use ParseAddr and handle the error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the dotted-quad representation.
func (a Addr) String() string {
	var b [15]byte
	return string(a.AppendTo(b[:0]))
}

// AppendTo appends the dotted-quad representation to b and returns the
// extended slice, allocating only if b must grow.
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>8&0xff), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(a&0xff), 10)
}

// Netip converts to a netip.Addr.
func (a Addr) Netip() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// AddrFromNetip converts from a netip.Addr. The address must be IPv4
// (or IPv4-mapped IPv6).
func AddrFromNetip(a netip.Addr) (Addr, error) {
	a = a.Unmap()
	if !a.Is4() {
		return 0, fmt.Errorf("netutil: %v is not an IPv4 address", a)
	}
	b := a.As4()
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])), nil
}

// Prefix is an IPv4 CIDR prefix. Base is the network address (low bits
// outside Len are zero for a canonical prefix); Len is the prefix length
// in [0,32]. The zero value is 0.0.0.0/0.
type Prefix struct {
	Base Addr
	Len  uint8
}

// ParsePrefix parses "a.b.c.d/len". Non-canonical bases (host bits set)
// are rejected; use ParsePrefixLoose to mask them instead.
func ParsePrefix(s string) (Prefix, error) {
	base, ln, err := parsePrefixParts(s)
	if err != nil {
		return Prefix{}, err
	}
	if base&Addr(maskOf(ln)) != base {
		return Prefix{}, fmt.Errorf("netutil: prefix %q has host bits set", s)
	}
	return Prefix{Base: base, Len: ln}, nil
}

// ParsePrefixLoose parses "a.b.c.d/len", masking any host bits.
func ParsePrefixLoose(s string) (Prefix, error) {
	base, ln, err := parsePrefixParts(s)
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{Base: base & Addr(maskOf(ln)), Len: ln}, nil
}

func parsePrefixParts(s string) (Addr, uint8, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("netutil: prefix %q missing '/'", s)
	}
	base, err := ParseAddr(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	n, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || n > 32 {
		return 0, 0, fmt.Errorf("netutil: invalid prefix length in %q", s)
	}
	return base, uint8(n), nil
}

// ParsePrefixBytes is ParsePrefix for a byte slice. It applies the same
// strictness (octets without leading zeros, no host bits set) but
// allocates nothing on success, so line-oriented bulk parsers can feed it
// scanner-owned bytes directly.
func ParsePrefixBytes(b []byte) (Prefix, error) {
	var base uint32
	pos := 0
	for i := 0; i < 4; i++ {
		start := pos
		var v uint32
		for pos < len(b) && b[pos] >= '0' && b[pos] <= '9' {
			v = v*10 + uint32(b[pos]-'0')
			if v > 255 {
				return Prefix{}, fmt.Errorf("netutil: invalid IPv4 address %q", b)
			}
			pos++
		}
		if n := pos - start; n == 0 || (n > 1 && b[start] == '0') {
			return Prefix{}, fmt.Errorf("netutil: invalid IPv4 address %q", b)
		}
		base = base<<8 | v
		if i < 3 {
			if pos >= len(b) || b[pos] != '.' {
				return Prefix{}, fmt.Errorf("netutil: invalid IPv4 address %q", b)
			}
			pos++
		}
	}
	if pos >= len(b) || b[pos] != '/' {
		return Prefix{}, fmt.Errorf("netutil: prefix %q missing '/'", b)
	}
	pos++
	start := pos
	var ln uint32
	for pos < len(b) && b[pos] >= '0' && b[pos] <= '9' {
		ln = ln*10 + uint32(b[pos]-'0')
		if ln > 32 {
			return Prefix{}, fmt.Errorf("netutil: invalid prefix length in %q", b)
		}
		pos++
	}
	if pos == start || pos != len(b) {
		return Prefix{}, fmt.Errorf("netutil: invalid prefix length in %q", b)
	}
	if base&maskOf(uint8(ln)) != base {
		return Prefix{}, fmt.Errorf("netutil: prefix %q has host bits set", b)
	}
	return Prefix{Base: Addr(base), Len: uint8(ln)}, nil
}

// MustParsePrefix is like ParsePrefix but panics on error. For tests and
// compile-time-constant-like initialisation of known-good literals only;
// code parsing external input must use ParsePrefix (or ParsePrefixBytes)
// and handle the error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// maskOf returns the network mask for a prefix length.
func maskOf(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// Mask returns the network mask of p as an Addr.
func (p Prefix) Mask() Addr { return Addr(maskOf(p.Len)) }

// String returns "a.b.c.d/len".
func (p Prefix) String() string {
	var b [18]byte
	return string(p.AppendTo(b[:0]))
}

// AppendTo appends "a.b.c.d/len" to b and returns the extended slice,
// allocating only if b must grow.
func (p Prefix) AppendTo(b []byte) []byte {
	b = p.Base.AppendTo(b)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(p.Len), 10)
}

// Canonical reports whether no host bits are set in Base.
func (p Prefix) Canonical() bool {
	return p.Len <= 32 && p.Base&Addr(maskOf(p.Len)) == p.Base
}

// Canonicalize returns p with host bits masked off.
func (p Prefix) Canonicalize() Prefix {
	if p.Len > 32 {
		p.Len = 32
	}
	p.Base &= Addr(maskOf(p.Len))
	return p
}

// First returns the first address in p (the network address).
func (p Prefix) First() Addr { return p.Base }

// Last returns the last address in p (the broadcast address for p).
func (p Prefix) Last() Addr {
	return p.Base | Addr(^maskOf(p.Len))
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - p.Len)
}

// Contains reports whether a is inside p.
func (p Prefix) Contains(a Addr) bool {
	return uint32(a)&maskOf(p.Len) == uint32(p.Base)
}

// ContainsPrefix reports whether q is fully inside p (q may equal p).
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Base)
}

// Overlaps reports whether p and q share at least one address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// Parent returns the prefix one bit shorter that contains p.
// Calling Parent on /0 returns /0.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		return p
	}
	np := Prefix{Base: p.Base, Len: p.Len - 1}
	return np.Canonicalize()
}

// Bit returns the i-th most-significant bit of the base address (0-indexed),
// as 0 or 1. Used by radix-trie traversal.
func (p Prefix) Bit(i uint8) int {
	return int(p.Base >> (31 - i) & 1)
}

// SplitHalves splits p into its two children. A /32 has none: ok is
// false and both halves are zero. This is the total form of Halves for
// code paths where the length is not statically known.
func (p Prefix) SplitHalves() (lo, hi Prefix, ok bool) {
	if p.Len >= 32 {
		return Prefix{}, Prefix{}, false
	}
	l := p.Len + 1
	lo = Prefix{Base: p.Base, Len: l}
	hi = Prefix{Base: p.Base | Addr(1<<(32-l)), Len: l}
	return lo, hi, true
}

// Halves splits p into its two children. Panics if p is a /32; call it
// only where the length is statically known to be shorter, and use
// SplitHalves everywhere else.
func (p Prefix) Halves() (lo, hi Prefix) {
	lo, hi, ok := p.SplitHalves()
	if !ok {
		panic("netutil: cannot split a /32")
	}
	return lo, hi
}

// Netip converts to a netip.Prefix.
func (p Prefix) Netip() netip.Prefix {
	return netip.PrefixFrom(p.Base.Netip(), int(p.Len))
}

// PrefixFromNetip converts from a netip.Prefix (must be IPv4).
func PrefixFromNetip(p netip.Prefix) (Prefix, error) {
	a, err := AddrFromNetip(p.Addr())
	if err != nil {
		return Prefix{}, err
	}
	if p.Bits() < 0 || p.Bits() > 32 {
		return Prefix{}, fmt.Errorf("netutil: invalid prefix length %d", p.Bits())
	}
	return Prefix{Base: a, Len: uint8(p.Bits())}.Canonicalize(), nil
}

// Compare orders prefixes by base address, then by length (shorter first).
// This matches the natural "supernet before subnet" ordering.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Base < q.Base:
		return -1
	case p.Base > q.Base:
		return 1
	case p.Len < q.Len:
		return -1
	case p.Len > q.Len:
		return 1
	}
	return 0
}

// SortPrefixes sorts prefixes in place in Compare order.
func SortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// Range is an inclusive IPv4 address range [First, Last].
type Range struct {
	First, Last Addr
}

// ParseRange parses "a.b.c.d - e.f.g.h" (whitespace around '-' optional).
func ParseRange(s string) (Range, error) {
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return Range{}, fmt.Errorf("netutil: range %q missing '-'", s)
	}
	first, err := ParseAddr(strings.TrimSpace(s[:dash]))
	if err != nil {
		return Range{}, err
	}
	last, err := ParseAddr(strings.TrimSpace(s[dash+1:]))
	if err != nil {
		return Range{}, err
	}
	if last < first {
		return Range{}, fmt.Errorf("netutil: inverted range %q", s)
	}
	return Range{First: first, Last: last}, nil
}

// ParseRangeBytes is ParseRange for a byte slice. A range of two plain
// dotted quads around the dash, with ASCII blanks at most, is parsed in
// place without allocating; anything else goes through ParseRange, so
// the result and every error are ParseRange's own.
func ParseRangeBytes(b []byte) (Range, error) {
	if first, i, ok := parseAddrAt(b, skipSpace(b, 0)); ok {
		if i = skipSpace(b, i); i < len(b) && b[i] == '-' {
			if last, j, ok := parseAddrAt(b, skipSpace(b, i+1)); ok && skipSpace(b, j) == len(b) && first <= last {
				return Range{First: first, Last: last}, nil
			}
		}
	}
	return ParseRange(string(b))
}

// parseAddrAt parses the dotted quad starting at b[i] with ParseAddr's
// strictness (decimal octets up to 255, no leading zeros) and returns
// the index after it; false when there is none.
func parseAddrAt(b []byte, i int) (Addr, int, bool) {
	var a uint32
	for k := 0; k < 4; k++ {
		if k > 0 {
			if i >= len(b) || b[i] != '.' {
				return 0, i, false
			}
			i++
		}
		if i >= len(b) || b[i]-'0' > 9 {
			return 0, i, false
		}
		v := uint32(b[i] - '0')
		i++
		// A leading zero ends the octet; a digit after it fails on the
		// next separator check.
		for n := 1; v != 0 && n < 3 && i < len(b) && b[i]-'0' <= 9; n++ {
			v = v*10 + uint32(b[i]-'0')
			i++
		}
		if v > 255 {
			return 0, i, false
		}
		a = a<<8 | v
	}
	return Addr(a), i, true
}

// skipSpace returns the index of the first byte at or after i that is
// not ASCII white space as strings.TrimSpace sees it.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || '\t' <= b[i] && b[i] <= '\r') {
		i++
	}
	return i
}

// String returns "a.b.c.d - e.f.g.h" in the RPSL inetnum style.
func (r Range) String() string {
	return r.First.String() + " - " + r.Last.String()
}

// RangeOf returns the range covered by a prefix.
func RangeOf(p Prefix) Range {
	return Range{First: p.First(), Last: p.Last()}
}

// NumAddrs returns the number of addresses in the range.
func (r Range) NumAddrs() uint64 {
	return uint64(r.Last) - uint64(r.First) + 1
}

// Contains reports whether a is inside the range.
func (r Range) Contains(a Addr) bool {
	return a >= r.First && a <= r.Last
}

// IsCIDR reports whether the range is exactly one CIDR prefix, and if so
// returns it.
func (r Range) IsCIDR() (Prefix, bool) {
	ps := r.Prefixes()
	if len(ps) == 1 {
		return ps[0], true
	}
	return Prefix{}, false
}

// Prefixes decomposes the range into the minimal ordered set of CIDR
// prefixes that exactly covers it.
func (r Range) Prefixes() []Prefix {
	var out []Prefix
	cur := uint64(r.First)
	end := uint64(r.Last)
	for cur <= end {
		// The block starting at cur can be no larger than its address
		// alignment allows, and must not extend past end.
		tz := bits.TrailingZeros32(uint32(cur))
		if cur == 0 {
			tz = 32
		}
		l := uint8(32 - tz) // shortest length the alignment allows
		remaining := end - cur + 1
		for l < 32 && uint64(1)<<(32-l) > remaining {
			l++
		}
		p := Prefix{Base: Addr(uint32(cur)), Len: l}
		out = append(out, p)
		cur += p.NumAddrs()
	}
	return out
}
