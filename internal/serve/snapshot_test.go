package serve

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ipleasing"
	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/whois"
)

// snapshotOf wraps a hand-rolled inference list into a served snapshot.
func snapshotOf(infs []core.Inference) *Snapshot {
	rr := &core.RegionResult{Registry: whois.RIPE, Inferences: infs}
	for i := range infs {
		rr.Counts[infs[i].Category]++
		rr.TotalLeaves++
	}
	res := &core.Result{
		Regions:          map[whois.Registry]*core.RegionResult{whois.RIPE: rr},
		TotalBGPPrefixes: len(infs),
	}
	return NewSnapshot(res, []*diag.LoadReport{{Source: "whois/RIPE", Parsed: len(infs)}}, nil)
}

// mapWalkLookupAddr is the retired implementation of LookupAddr — up to
// 25 map probes from /32 down — kept as the oracle the flat LPM index
// is cross-checked against.
func mapWalkLookupAddr(byPrefix map[netutil.Prefix]*core.Inference, a netutil.Addr) *core.Inference {
	for l := uint8(32); ; l-- {
		p := netutil.Prefix{Base: a, Len: l}.Canonicalize()
		if inf, ok := byPrefix[p]; ok {
			return inf
		}
		if l == 0 {
			return nil
		}
	}
}

// byPrefixOf rebuilds the retired map index over a snapshot's leaves.
func byPrefixOf(s *Snapshot) map[netutil.Prefix]*core.Inference {
	infs := inferencesOf(s)
	m := make(map[netutil.Prefix]*core.Inference, len(infs))
	for i := range infs {
		m[infs[i].Prefix] = &infs[i]
	}
	return m
}

// inferencesOf decodes every record of s, in record order.
func inferencesOf(s *Snapshot) []core.Inference {
	out := make([]core.Inference, s.NumInferences())
	for i := range out {
		s.InferenceInto(i, &out[i])
	}
	return out
}

// sameInference reports whether two lookup answers are the same
// classification (or both misses).
func sameInference(a, b *core.Inference) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(*a, *b)
}

// edgeSnapshot covers the address-space extremes and a root that has
// classified leaves next to uncovered gaps.
func edgeSnapshot() *Snapshot {
	root := mp("10.0.0.0/16")
	return snapshotOf([]core.Inference{
		{Registry: whois.RIPE, Prefix: mp("0.0.0.0/24"), Category: core.AggregatedCustomer, Root: mp("0.0.0.0/8")},
		{Registry: whois.RIPE, Prefix: mp("10.0.0.0/24"), Category: core.LeasedNoRootOrigin, Root: root},
		{Registry: whois.RIPE, Prefix: mp("10.0.1.0/24"), Category: core.ISPCustomer, Root: root},
		{Registry: whois.RIPE, Prefix: mp("255.255.255.0/24"), Category: core.AggregatedCustomer, Root: mp("255.0.0.0/8")},
	})
}

func TestLookupAddrEdgeCases(t *testing.T) {
	s := edgeSnapshot()
	cases := []struct {
		addr string
		want string // matched prefix, "" for miss
	}{
		{"0.0.0.0", "0.0.0.0/24"},               // lowest address in the space
		{"0.0.0.255", "0.0.0.0/24"},             // last covered address of that leaf
		{"0.0.1.0", ""},                         // one past the first leaf
		{"255.255.255.255", "255.255.255.0/24"}, // highest address in the space
		{"255.255.254.255", ""},                 // one below the last leaf
		{"10.0.0.255", "10.0.0.0/24"},           // adjacent-leaf boundary, low side
		{"10.0.1.0", "10.0.1.0/24"},             // adjacent-leaf boundary, high side
		{"10.0.2.0", ""},                        // inside the root, no classified leaf
		{"10.0.255.255", ""},                    // root-covered gap at the root's end
		{"9.255.255.255", ""},                   // just below the root
	}
	for _, c := range cases {
		inf := s.LookupAddr(netutil.MustParseAddr(c.addr))
		switch {
		case c.want == "" && inf != nil:
			t.Errorf("LookupAddr(%s) = %s, want miss", c.addr, inf.Prefix)
		case c.want != "" && inf == nil:
			t.Errorf("LookupAddr(%s) = miss, want %s", c.addr, c.want)
		case c.want != "" && inf.Prefix != mp(c.want):
			t.Errorf("LookupAddr(%s) = %s, want %s", c.addr, inf.Prefix, c.want)
		}
	}
}

func TestLookupPrefixExactOnly(t *testing.T) {
	s := edgeSnapshot()
	if inf := s.LookupPrefix(mp("10.0.1.0/24")); inf == nil || inf.Category != core.ISPCustomer {
		t.Fatalf("LookupPrefix(10.0.1.0/24) = %v", inf)
	}
	// Containment is not exactness, in either direction.
	for _, q := range []string{"10.0.0.0/16", "10.0.1.0/25", "10.0.1.128/25", "10.0.2.0/24"} {
		if inf := s.LookupPrefix(mp(q)); inf != nil {
			t.Errorf("LookupPrefix(%s) = %s, want miss", q, inf.Prefix)
		}
	}
}

func TestLookupAddrEmptySnapshot(t *testing.T) {
	s := snapshotOf(nil)
	if inf := s.LookupAddr(netutil.MustParseAddr("10.0.0.1")); inf != nil {
		t.Fatalf("empty snapshot matched %s", inf.Prefix)
	}
	if inf := s.LookupPrefix(mp("10.0.0.0/24")); inf != nil {
		t.Fatalf("empty snapshot matched prefix %s", inf.Prefix)
	}
	if got := s.LookupAddrs(nil, []netutil.Addr{netutil.MustParseAddr("10.0.0.1")}); len(got) != 1 || got[0] != -1 {
		t.Fatalf("empty snapshot batch = %v", got)
	}
}

// randomLeafSnapshot builds a snapshot with n pseudo-random leaf
// prefixes clustered registry-style (mostly /20../28 under a few /8s).
func randomLeafSnapshot(rng *rand.Rand, n int) *Snapshot {
	infs := make([]core.Inference, 0, n)
	for i := 0; i < n; i++ {
		base := uint32(rng.Intn(8))<<28 | rng.Uint32()>>4
		ln := uint8(20 + rng.Intn(9))
		p := netutil.Prefix{Base: netutil.Addr(base), Len: ln}.Canonicalize()
		infs = append(infs, core.Inference{
			Registry: whois.RIPE, Prefix: p,
			Category: core.Category(rng.Intn(int(core.Orphan) + 1)),
			Root:     netutil.Prefix{Base: p.Base, Len: 8}.Canonicalize(),
		})
	}
	return snapshotOf(infs)
}

// TestLookupAddrCrossCheck drives the LPM-backed LookupAddr against the
// retired map-walk implementation over random snapshots: every answer —
// hit or miss — must be the identical classification.
func TestLookupAddrCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		s := randomLeafSnapshot(rng, 100+rng.Intn(400))
		byPrefix := byPrefixOf(s)
		infs := inferencesOf(s)
		for q := 0; q < 1000; q++ {
			var a netutil.Addr
			if q%2 == 0 {
				p := infs[rng.Intn(len(infs))].Prefix
				a = p.Base | netutil.Addr(rng.Uint32()&^uint32(p.Mask()))
			} else {
				a = netutil.Addr(rng.Uint32())
			}
			want := mapWalkLookupAddr(byPrefix, a)
			got := s.LookupAddr(a)
			if !sameInference(got, want) {
				t.Fatalf("trial %d: LookupAddr(%s) = %v, map walk = %v", trial, a, got, want)
			}
		}
	}
}

// FuzzLookupAddr lets the fuzzer pick the address; the oracle is the
// retired map walk over the edge snapshot.
func FuzzLookupAddr(f *testing.F) {
	s := edgeSnapshot()
	byPrefix := byPrefixOf(s)
	f.Add(uint32(0))
	f.Add(uint32(0xffffffff))
	f.Add(uint32(0x0a000100))
	f.Fuzz(func(t *testing.T, addr uint32) {
		a := netutil.Addr(addr)
		if got, want := s.LookupAddr(a), mapWalkLookupAddr(byPrefix, a); !sameInference(got, want) {
			t.Fatalf("LookupAddr(%s) = %v, map walk = %v", a, got, want)
		}
	})
}

func TestLookupAddrs(t *testing.T) {
	s := edgeSnapshot()
	addrs := []netutil.Addr{
		netutil.MustParseAddr("10.0.0.7"),
		netutil.MustParseAddr("10.0.9.9"),
		netutil.MustParseAddr("255.255.255.255"),
	}
	got := s.LookupAddrs(nil, addrs)
	if len(got) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(got))
	}
	if got[0] < 0 || s.Inference(int(got[0])).Prefix != mp("10.0.0.0/24") {
		t.Errorf("batch[0] = %v", got[0])
	}
	if got[1] != -1 {
		t.Errorf("batch[1] = %v, want -1", got[1])
	}
	if got[2] < 0 || s.Inference(int(got[2])).Prefix != mp("255.255.255.0/24") {
		t.Errorf("batch[2] = %v", got[2])
	}
	// Appending semantics: an existing dst is extended, not overwritten.
	again := s.LookupAddrs(got[:1], addrs[2:])
	if len(again) != 2 || again[0] != got[0] || again[1] != got[2] {
		t.Fatalf("append batch = %v", again)
	}
}

func addrsForBench(s *Snapshot, n int) []netutil.Addr {
	rng := rand.New(rand.NewSource(3))
	addrs := make([]netutil.Addr, n)
	infs := inferencesOf(s)
	for i := range addrs {
		p := infs[rng.Intn(len(infs))].Prefix
		addrs[i] = p.Base | netutil.Addr(rng.Uint32()&^uint32(p.Mask()))
	}
	return addrs
}

// BenchmarkLookupAddr is the serving hot path: one address classified
// against a realistic-size snapshot and its record — strings, origin
// runs, and a facilitator on every other record — decoded into a
// reused value, as the /lookup handler does. Must report 0 allocs/op —
// the gate in cmd/benchgate enforces it.
func BenchmarkLookupAddr(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := richLeafSnapshot(rng, 8192)
	addrs := addrsForBench(s, 1024)
	var inf core.Inference
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LookupAddrInto(addrs[i%len(addrs)], &inf)
	}
}

// BenchmarkLookupBatch measures amortized per-batch cost with a reused
// destination slice — the shape of the /lookup/batch handler's loop.
func BenchmarkLookupBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := randomLeafSnapshot(rng, 8192)
	addrs := addrsForBench(s, 1000)
	dst := make([]int32, 0, len(addrs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.LookupAddrs(dst[:0], addrs)
	}
	if len(dst) != len(addrs) {
		b.Fatal(fmt.Sprintf("batch returned %d results", len(dst)))
	}
}

// TestSnapshotSharesInferenceArena: after full inference and
// NewSnapshot, the result's flat arena — the one the snapshot encodes
// its records from — is the only heap copy of the inferences. Every
// region's Inferences is a cap-limited window of it, the windows tile
// it in registry order, and so an append to one region can never write
// into the next.
func TestSnapshotSharesInferenceArena(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ipleasing.Generate(ipleasing.Config{Seed: 5, Scale: 0.005}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	_, sum, res, err := ipleasing.LoadAndInfer(dir, ipleasing.LenientLoad(), ipleasing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
	flat := snap.Result.Flat()
	if len(flat) == 0 {
		t.Fatal("empty arena")
	}
	off, regions := 0, 0
	for _, reg := range whois.Registries {
		rr, ok := snap.Result.Regions[reg]
		if !ok || len(rr.Inferences) == 0 {
			continue
		}
		regions++
		if cap(rr.Inferences) != len(rr.Inferences) {
			t.Errorf("%v: cap %d != len %d", reg, cap(rr.Inferences), len(rr.Inferences))
		}
		if off+len(rr.Inferences) > len(flat) || &rr.Inferences[0] != &flat[off] {
			t.Fatalf("%v: inferences are not the arena window at %d", reg, off)
		}
		off += len(rr.Inferences)
	}
	if regions < 2 {
		t.Fatalf("only %d non-empty regions; the world should span several registries", regions)
	}
	if off != len(flat) {
		t.Errorf("region windows cover %d of %d arena entries", off, len(flat))
	}
}
