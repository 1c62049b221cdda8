package netutil

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
)

// TestLPMNativeRoundTrip: an index rebuilt over its native encoding —
// the zero-copy path a mapped snapshot takes — must answer every
// longest-match and exact lookup identically to the original.
func TestLPMNativeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := randomPrefixSet(rng, 200+rng.Intn(400))
		orig := BuildLPM(ps)
		dec, err := LPMFromNative(orig.AppendNative(nil), len(ps))
		if err != nil {
			t.Fatalf("seed %d: from native: %v", seed, err)
		}
		if dec.Len() != orig.Len() {
			t.Fatalf("seed %d: rebuilt %d nodes, want %d", seed, dec.Len(), orig.Len())
		}
		for trial := 0; trial < 3000; trial++ {
			a := Addr(rng.Uint32())
			gi, gok := dec.Lookup(a)
			wi, wok := orig.Lookup(a)
			if gi != wi || gok != wok {
				t.Fatalf("seed %d: Lookup(%v) = %d,%v; want %d,%v", seed, a, gi, gok, wi, wok)
			}
		}
		for _, p := range ps {
			gi, gok := dec.LookupExact(p)
			wi, wok := orig.LookupExact(p)
			if gi != wi || gok != wok {
				t.Fatalf("seed %d: LookupExact(%v) = %d,%v; want %d,%v", seed, p, gi, gok, wi, wok)
			}
		}
	}
}

func TestLPMNativeEmpty(t *testing.T) {
	dec, err := LPMFromNative(BuildLPM(nil).AppendNative(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Lookup(MustParseAddr("10.0.0.1")); ok {
		t.Fatal("empty native index matched an address")
	}
}

// lpmDamage is one way to corrupt a native LPM encoding: cut it to trunc
// bytes when trunc > 0, otherwise apply mutate to a copy.
type lpmDamage struct {
	name   string
	mutate func(b []byte)
	trunc  int
}

// lpmNativeDamage lists the structural damage LPMFromNative must reject
// for good, the encoding of an index built over nvals prefixes.
func lpmNativeDamage(good []byte, nvals int) []lpmDamage {
	node := func(i int) int { return lpmNativeHeaderSize + i*lpmNativeNodeSize }
	return []lpmDamage{
		{name: "empty", trunc: 1},
		{name: "short-header", trunc: 4},
		{name: "cut-mid-node", trunc: len(good) - 7},
		{name: "dups-flag", mutate: func(b []byte) { b[4] = 7 }},
		{name: "header-padding", mutate: func(b []byte) { b[6] = 1 }},
		{name: "count-overclaims", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[0:4], 1<<30)
		}},
		{name: "prefix-len-33", mutate: func(b []byte) { b[node(1)+20] = 33 }},
		{name: "mask-mismatch", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(1)+4:], 0xffffffff)
		}},
		{name: "host-bits", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(1):], 0x0a0000ff)
			binary.LittleEndian.PutUint32(b[node(1)+4:], maskOf(8))
			b[node(1)+20] = 8
		}},
		{name: "val-past-arena", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(1)+8:], uint32(nvals))
		}},
		{name: "val-below-minus-one", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(1)+8:], 0xfffffffe) // int32(-2)
		}},
		{name: "kid-out-of-range", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(1)+12:], 1<<20)
		}},
		{name: "kid-self-loop", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(1)+12:], 1)
		}},
		{name: "kid-to-ancestor", mutate: func(b []byte) {
			// A child no longer than its parent can close a cycle
			// that a descent would never leave.
			binary.LittleEndian.PutUint32(b[node(1)+12:], 0)
			binary.LittleEndian.PutUint32(b[node(1)+16:], 0)
		}},
		{name: "node-padding", mutate: func(b []byte) { b[node(1)+22] = 0xee }},
		{name: "no-root-anchor", mutate: func(b []byte) {
			binary.LittleEndian.PutUint32(b[node(0)+4:], maskOf(1))
			b[node(0)+20] = 1
		}},
		{name: "kid-wrong-branch", mutate: func(b []byte) {
			// Acyclic and longer, but each child sits on the other side:
			// every descent through the anchor would miss.
			k0 := binary.LittleEndian.Uint32(b[node(0)+12:])
			k1 := binary.LittleEndian.Uint32(b[node(0)+16:])
			binary.LittleEndian.PutUint32(b[node(0)+12:], k1)
			binary.LittleEndian.PutUint32(b[node(0)+16:], k0)
		}},
	}
}

// apply returns good with d applied, in a fresh buffer.
func (d lpmDamage) apply(good []byte) []byte {
	mut := append([]byte(nil), good...)
	if d.trunc > 0 {
		return mut[:d.trunc]
	}
	d.mutate(mut)
	return mut
}

// unaligned copies b to an offset that is not 8-aligned, so
// LPMFromNative cannot alias it and takes the copying decode.
func unaligned(b []byte) []byte {
	s := make([]byte, len(b)+1)
	copy(s[1:], b)
	return s[1:]
}

// TestLPMNativeRejects: the native decoder validates every record
// before the index exists — a mapped file with damaged nodes must fail
// construction, never corrupt a descent at query time.
func TestLPMNativeRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := randomPrefixSet(rng, 64)
	good := BuildLPM(ps).AppendNative(nil)
	for _, d := range lpmNativeDamage(good, len(ps)) {
		t.Run(d.name, func(t *testing.T) {
			if _, err := LPMFromNative(d.apply(good), len(ps)); err == nil {
				t.Fatal("damaged native LPM encoding accepted")
			}
		})
	}
}

// TestLPMCodecRejects: the same damage must be rejected on the copying
// decode, the path an unaligned or foreign-layout buffer takes. The
// checks run on the decoded nodes, so a copy must not launder damage
// that the aliasing path would catch.
func TestLPMCodecRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := randomPrefixSet(rng, 64)
	good := BuildLPM(ps).AppendNative(nil)
	for _, d := range lpmNativeDamage(good, len(ps)) {
		t.Run(d.name, func(t *testing.T) {
			if _, err := LPMFromNative(unaligned(d.apply(good)), len(ps)); err == nil {
				t.Fatal("damaged LPM encoding accepted by the copying decode")
			}
		})
	}
}

// TestLPMCodecRoundTrip: the encoding is canonical. Re-encoding an
// index rebuilt from it, on the aliasing and on the copying decode,
// must give back the same bytes, with the size the layout fixes.
func TestLPMCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := randomPrefixSet(rng, 200+rng.Intn(400))
		orig := BuildLPM(ps)
		enc := orig.AppendNative(nil)
		if want := lpmNativeHeaderSize + orig.Len()*lpmNativeNodeSize; len(enc) != want {
			t.Fatalf("seed %d: encoding is %d bytes, want %d", seed, len(enc), want)
		}
		for _, buf := range [][]byte{enc, unaligned(enc)} {
			dec, err := LPMFromNative(buf, len(ps))
			if err != nil {
				t.Fatalf("seed %d: from native: %v", seed, err)
			}
			if re := dec.AppendNative(nil); !bytes.Equal(re, enc) {
				t.Fatalf("seed %d: re-encoding differs from the original encoding", seed)
			}
		}
	}
}

// TestLPMCodecEmpty: a zero-value index encodes as an empty header, and
// that header decodes to an index that matches nothing.
func TestLPMCodecEmpty(t *testing.T) {
	var zero LPM
	enc := zero.AppendNative(nil)
	if !bytes.Equal(enc, make([]byte, lpmNativeHeaderSize)) {
		t.Fatalf("zero-value index encodes as %x, want %d zero bytes", enc, lpmNativeHeaderSize)
	}
	dec, err := LPMFromNative(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Lookup(MustParseAddr("10.0.0.1")); ok {
		t.Fatal("empty decoded index matched an address")
	}
	if _, ok := dec.LookupExact(Prefix{}); ok {
		t.Fatal("empty decoded index matched the /0 prefix")
	}
}

// TestLPMNativeUnalignedFallsBack: the aliasing fast path needs the
// records 8-aligned; shifting the buffer by one byte must route through
// the copying decode and still produce a correct index.
func TestLPMNativeUnalignedFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := randomPrefixSet(rng, 100)
	orig := BuildLPM(ps)
	dec, err := LPMFromNative(unaligned(orig.AppendNative(nil)), len(ps))
	if err != nil {
		t.Fatalf("from unaligned native: %v", err)
	}
	for trial := 0; trial < 2000; trial++ {
		a := Addr(rng.Uint32())
		gi, gok := dec.Lookup(a)
		wi, wok := orig.Lookup(a)
		if gi != wi || gok != wok {
			t.Fatalf("Lookup(%v) = %d,%v; want %d,%v", a, gi, gok, wi, wok)
		}
	}
}

// aligned copies b into an 8-aligned buffer, so LPMFromNative may alias
// it (the path a mapped snapshot takes).
func aligned(b []byte) []byte {
	words := make([]uint64, len(b)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return buf[:copy(buf, b)]
}

// FuzzLPMFromNative feeds arbitrary bytes to both native decodes, the
// aliasing one and the copying one. Neither may panic or hang, both must
// accept or reject alike, and an accepted index must answer every
// longest-match and exact lookup identically on both, always with a
// value below maxVal.
func FuzzLPMFromNative(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	ps := randomPrefixSet(rng, 64)
	good := BuildLPM(ps).AppendNative(nil)
	f.Add(good, uint16(len(ps)))
	f.Add(BuildLPM(ps[:3]).AppendNative(nil), uint16(3))
	f.Add(BuildLPM(nil).AppendNative(nil), uint16(0))
	for _, d := range lpmNativeDamage(good, len(ps)) {
		f.Add(d.apply(good), uint16(len(ps)))
	}
	f.Fuzz(func(t *testing.T, data []byte, maxVal uint16) {
		alias, aerr := LPMFromNative(aligned(data), int(maxVal))
		copied, cerr := LPMFromNative(unaligned(data), int(maxVal))
		if (aerr == nil) != (cerr == nil) {
			t.Fatalf("aliasing decode err %v, copying decode err %v", aerr, cerr)
		}
		if aerr != nil {
			return
		}
		// Probe every encoded node's prefix, its first and last address
		// and one address past it, plus addresses drawn from the input.
		var probes []Prefix
		for off := lpmNativeHeaderSize; off+lpmNativeNodeSize <= len(data); off += lpmNativeNodeSize {
			p := Prefix{Base: Addr(binary.LittleEndian.Uint32(data[off:])), Len: data[off+20] % 33}
			probes = append(probes, p)
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 64; i++ {
			probes = append(probes, Prefix{Base: Addr(r.Uint32()), Len: uint8(r.Intn(33))})
		}
		check := func(what string, a, b int32, aok, bok bool) {
			if a != b || aok != bok {
				t.Fatalf("%s: aliasing %d,%v, copying %d,%v", what, a, aok, b, bok)
			}
			if int(a) >= int(maxVal) || (aok && a < 0) {
				t.Fatalf("%s = %d,%v, outside [0, %d)", what, a, aok, maxVal)
			}
		}
		for _, p := range probes {
			for _, a := range []Addr{p.Base, p.Last(), p.Last() + 1} {
				x, xok := alias.Lookup(a)
				y, yok := copied.Lookup(a)
				check("Lookup("+a.String()+")", x, y, xok, yok)
			}
			x, xok := alias.LookupExact(p)
			y, yok := copied.LookupExact(p)
			check("LookupExact("+p.String()+")", x, y, xok, yok)
		}
	})
}
