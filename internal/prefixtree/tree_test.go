package prefixtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ipleasing/internal/netutil"
)

func mp(s string) netutil.Prefix { return netutil.MustParsePrefix(s) }

func TestInsertGet(t *testing.T) {
	var tr Tree[int]
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if !tr.Insert(mp("10.0.0.0/8"), 1) {
		t.Fatal("first insert reported replace")
	}
	if tr.Insert(mp("10.0.0.0/8"), 2) {
		t.Fatal("re-insert reported new")
	}
	if v, ok := tr.Get(mp("10.0.0.0/8")); !ok || v != 2 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := tr.Get(mp("10.0.0.0/9")); ok {
		t.Fatal("Get found non-inserted prefix")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertDiverging(t *testing.T) {
	var tr Tree[string]
	tr.Insert(mp("10.0.0.0/24"), "a")
	tr.Insert(mp("10.0.1.0/24"), "b")
	tr.Insert(mp("10.0.0.0/16"), "parent")
	tr.Insert(mp("192.168.0.0/16"), "far")
	for _, c := range []struct {
		p string
		v string
	}{
		{"10.0.0.0/24", "a"}, {"10.0.1.0/24", "b"},
		{"10.0.0.0/16", "parent"}, {"192.168.0.0/16", "far"},
	} {
		if v, ok := tr.Get(mp(c.p)); !ok || v != c.v {
			t.Fatalf("Get(%s) = %q %v", c.p, v, ok)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestLongestShortestMatch(t *testing.T) {
	var tr Tree[string]
	tr.Insert(mp("10.0.0.0/8"), "eight")
	tr.Insert(mp("10.1.0.0/16"), "sixteen")
	tr.Insert(mp("10.1.2.0/24"), "twentyfour")

	p, v, ok := tr.LongestMatch(mp("10.1.2.0/26"))
	if !ok || p != mp("10.1.2.0/24") || v != "twentyfour" {
		t.Fatalf("LongestMatch = %v %v %v", p, v, ok)
	}
	p, v, ok = tr.ShortestMatch(mp("10.1.2.0/26"))
	if !ok || p != mp("10.0.0.0/8") || v != "eight" {
		t.Fatalf("ShortestMatch = %v %v %v", p, v, ok)
	}
	// Exact prefix is a valid match for both.
	p, _, ok = tr.LongestMatch(mp("10.0.0.0/8"))
	if !ok || p != mp("10.0.0.0/8") {
		t.Fatalf("LongestMatch self = %v %v", p, ok)
	}
	if _, _, ok := tr.LongestMatch(mp("11.0.0.0/8")); ok {
		t.Fatal("match outside tree")
	}
	// A supernet of everything inserted matches nothing.
	if _, _, ok := tr.LongestMatch(mp("0.0.0.0/0")); ok {
		t.Fatal("supernet matched")
	}
	p, v, ok = tr.LongestMatch(mp("10.1.2.3/32"))
	if !ok || p != mp("10.1.2.0/24") || v != "twentyfour" {
		t.Fatalf("LongestMatch /32 = %v %v %v", p, v, ok)
	}
}

func TestDelete(t *testing.T) {
	var tr Tree[int]
	tr.Insert(mp("10.0.0.0/8"), 1)
	tr.Insert(mp("10.0.0.0/16"), 2)
	if !tr.Delete(mp("10.0.0.0/8")) {
		t.Fatal("delete failed")
	}
	if tr.Delete(mp("10.0.0.0/8")) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tr.Get(mp("10.0.0.0/8")); ok {
		t.Fatal("deleted prefix still present")
	}
	if v, ok := tr.Get(mp("10.0.0.0/16")); !ok || v != 2 {
		t.Fatal("sibling lost after delete")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// LongestMatch must skip the unset structural node.
	if p, _, ok := tr.LongestMatch(mp("10.0.0.0/24")); !ok || p != mp("10.0.0.0/16") {
		t.Fatalf("LongestMatch after delete = %v %v", p, ok)
	}
}

func TestRootsLeavesDepth(t *testing.T) {
	var tr Tree[string]
	// Allocation-forest shape from the paper's Figure 2:
	//   213.210.0.0/18 (root) -> {213.210.33.0/24, 213.210.2.0/23} (leaves)
	tr.Insert(mp("213.210.0.0/18"), "GCI")
	tr.Insert(mp("213.210.33.0/24"), "IPXO-MNT")
	tr.Insert(mp("213.210.2.0/23"), "MNT-GCICOM")
	tr.Insert(mp("8.8.8.0/24"), "standalone")

	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots = %v", roots)
	}
	leaves := tr.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	// The standalone prefix is both root and leaf.
	foundStandalone := false
	for _, l := range leaves {
		if l.Prefix == mp("8.8.8.0/24") && l.Depth == 0 {
			foundStandalone = true
		}
	}
	if !foundStandalone {
		t.Fatal("standalone prefix should be a depth-0 leaf")
	}
	// Root entry must report it has children.
	for _, r := range roots {
		if r.Prefix == mp("213.210.0.0/18") && !r.HasChildren {
			t.Fatal("root with children reported childless")
		}
	}
	// Depth of the leaves under the /18 must be 1.
	for _, l := range leaves {
		if l.Prefix == mp("213.210.33.0/24") && l.Depth != 1 {
			t.Fatalf("leaf depth = %d", l.Depth)
		}
	}
}

func TestIntermediateNodes(t *testing.T) {
	var tr Tree[int]
	tr.Insert(mp("10.0.0.0/8"), 0)
	tr.Insert(mp("10.0.0.0/16"), 1)
	tr.Insert(mp("10.0.0.0/24"), 2)
	roots, leaves := tr.Roots(), tr.Leaves()
	if len(roots) != 1 || roots[0].Prefix != mp("10.0.0.0/8") {
		t.Fatalf("roots = %v", roots)
	}
	if len(leaves) != 1 || leaves[0].Prefix != mp("10.0.0.0/24") {
		t.Fatalf("leaves = %v", leaves)
	}
	if leaves[0].Depth != 2 {
		t.Fatalf("leaf depth = %d", leaves[0].Depth)
	}
	anc := tr.Ancestors(mp("10.0.0.0/24"))
	if len(anc) != 2 || anc[0].Prefix != mp("10.0.0.0/8") || anc[1].Prefix != mp("10.0.0.0/16") {
		t.Fatalf("ancestors = %v", anc)
	}
}

func TestRootOf(t *testing.T) {
	var tr Tree[int]
	tr.Insert(mp("172.16.0.0/12"), 1)
	tr.Insert(mp("172.16.5.0/24"), 2)
	// The allocation-forest root of a block is its shortest match.
	p, v, ok := tr.ShortestMatch(mp("172.16.5.0/24"))
	if !ok || p != mp("172.16.0.0/12") || v != 1 {
		t.Fatalf("ShortestMatch = %v %v %v", p, v, ok)
	}
}

func TestCovered(t *testing.T) {
	var tr Tree[int]
	tr.Insert(mp("10.0.0.0/8"), 1)
	tr.Insert(mp("10.1.0.0/16"), 2)
	tr.Insert(mp("10.2.0.0/16"), 3)
	tr.Insert(mp("11.0.0.0/8"), 4)
	got := tr.Covered(mp("10.0.0.0/8"))
	if len(got) != 3 {
		t.Fatalf("Covered = %v", got)
	}
	got = tr.Covered(mp("10.1.0.0/16"))
	if len(got) != 1 || got[0].Prefix != mp("10.1.0.0/16") {
		t.Fatalf("Covered(/16) = %v", got)
	}
	if got := tr.Covered(mp("12.0.0.0/8")); len(got) != 0 {
		t.Fatalf("Covered outside = %v", got)
	}
}

func TestWalkOrderAndStop(t *testing.T) {
	var tr Tree[int]
	ins := []string{"10.0.1.0/24", "10.0.0.0/8", "9.0.0.0/8", "10.0.0.0/16"}
	for i, s := range ins {
		tr.Insert(mp(s), i)
	}
	var order []netutil.Prefix
	tr.Walk(func(e Entry[int]) bool {
		order = append(order, e.Prefix)
		return true
	})
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i].Compare(order[j]) < 0 }) {
		t.Fatalf("walk order not sorted: %v", order)
	}
	// Early stop.
	count := 0
	tr.Walk(func(e Entry[int]) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("walk did not stop: %d", count)
	}
}

// Property: for random prefix sets, LongestMatch agrees with a brute-force
// linear scan, and Roots/Leaves agree with brute-force containment checks.
func TestAgainstBruteForceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		var tr Tree[int]
		n := 3 + rng.Intn(60)
		set := make(map[netutil.Prefix]int)
		for i := 0; i < n; i++ {
			p := netutil.Prefix{
				Base: netutil.Addr(rng.Uint32()),
				Len:  uint8(8 + rng.Intn(17)), // /8../24
			}.Canonicalize()
			set[p] = i
			tr.Insert(p, i)
		}
		if tr.Len() != len(set) {
			t.Fatalf("Len = %d want %d", tr.Len(), len(set))
		}
		// Longest / shortest match versus brute force for random probes.
		for probe := 0; probe < 100; probe++ {
			q := netutil.Prefix{Base: netutil.Addr(rng.Uint32()), Len: uint8(rng.Intn(33))}.Canonicalize()
			var bestLong, bestShort *netutil.Prefix
			for p := range set {
				if p.ContainsPrefix(q) {
					pp := p
					if bestLong == nil || p.Len > bestLong.Len {
						bestLong = &pp
					}
					if bestShort == nil || p.Len < bestShort.Len {
						bestShort = &pp
					}
				}
			}
			gp, _, ok := tr.LongestMatch(q)
			if (bestLong != nil) != ok || (ok && gp != *bestLong) {
				t.Fatalf("LongestMatch(%v) = %v %v, want %v", q, gp, ok, bestLong)
			}
			gp, _, ok = tr.ShortestMatch(q)
			if (bestShort != nil) != ok || (ok && gp != *bestShort) {
				t.Fatalf("ShortestMatch(%v) = %v %v, want %v", q, gp, ok, bestShort)
			}
		}
		// Roots and leaves versus brute force.
		wantRoots := map[netutil.Prefix]bool{}
		wantLeaves := map[netutil.Prefix]bool{}
		for p := range set {
			isRoot, isLeaf := true, true
			for q := range set {
				if q == p {
					continue
				}
				if q.ContainsPrefix(p) {
					isRoot = false
				}
				if p.ContainsPrefix(q) {
					isLeaf = false
				}
			}
			if isRoot {
				wantRoots[p] = true
			}
			if isLeaf {
				wantLeaves[p] = true
			}
		}
		gotRoots := tr.Roots()
		if len(gotRoots) != len(wantRoots) {
			t.Fatalf("roots: got %d want %d", len(gotRoots), len(wantRoots))
		}
		for _, r := range gotRoots {
			if !wantRoots[r.Prefix] {
				t.Fatalf("unexpected root %v", r.Prefix)
			}
		}
		gotLeaves := tr.Leaves()
		if len(gotLeaves) != len(wantLeaves) {
			t.Fatalf("leaves: got %d want %d", len(gotLeaves), len(wantLeaves))
		}
		for _, l := range gotLeaves {
			if !wantLeaves[l.Prefix] {
				t.Fatalf("unexpected leaf %v", l.Prefix)
			}
		}
	}
}

// Property: Get returns exactly what was inserted for arbitrary inputs.
func TestInsertGetQuick(t *testing.T) {
	f := func(bases []uint32) bool {
		var tr Tree[uint32]
		want := make(map[netutil.Prefix]uint32)
		for _, b := range bases {
			p := netutil.Prefix{Base: netutil.Addr(b), Len: uint8(b % 33)}.Canonicalize()
			want[p] = b
			tr.Insert(p, b)
		}
		if tr.Len() != len(want) {
			return false
		}
		for p, v := range want {
			got, ok := tr.Get(p)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildRandomTree(n int, seed int64) (*Tree[int], []netutil.Prefix) {
	rng := rand.New(rand.NewSource(seed))
	tr := &Tree[int]{}
	probes := make([]netutil.Prefix, 0, n)
	for i := 0; i < n; i++ {
		p := netutil.Prefix{Base: netutil.Addr(rng.Uint32()), Len: uint8(8 + rng.Intn(17))}.Canonicalize()
		tr.Insert(p, i)
		probes = append(probes, p)
	}
	return tr, probes
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ps := make([]netutil.Prefix, 100000)
	for i := range ps {
		ps[i] = netutil.Prefix{Base: netutil.Addr(rng.Uint32()), Len: uint8(8 + rng.Intn(17))}.Canonicalize()
	}
	b.ResetTimer()
	var tr Tree[int]
	for i := 0; i < b.N; i++ {
		tr.Insert(ps[i%len(ps)], i)
	}
}

func BenchmarkLongestMatch(b *testing.B) {
	tr, probes := buildRandomTree(100000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LongestMatch(probes[i%len(probes)])
	}
}

// BenchmarkTrieVsLinear is the DESIGN.md ablation: longest-prefix match via
// the radix trie versus a naive linear scan over all prefixes.
func BenchmarkTrieVsLinear(b *testing.B) {
	tr, probes := buildRandomTree(10000, 9)
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.LongestMatch(probes[i%len(probes)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := probes[i%len(probes)]
			var best netutil.Prefix
			found := false
			for _, p := range probes {
				if p.ContainsPrefix(q) && (!found || p.Len > best.Len) {
					best, found = p, true
				}
			}
			_ = best
		}
	})
}

func TestInsertIfAbsent(t *testing.T) {
	var tr Tree[string]
	if !tr.InsertIfAbsent(mp("10.0.0.0/8"), "first") {
		t.Fatal("InsertIfAbsent of new prefix reported absent-insert failure")
	}
	if tr.InsertIfAbsent(mp("10.0.0.0/8"), "second") {
		t.Fatal("InsertIfAbsent of present prefix reported insert")
	}
	if v, ok := tr.Get(mp("10.0.0.0/8")); !ok || v != "first" {
		t.Fatalf("Get = %q %v, want existing value kept", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// A structural (branch) node left by diverging inserts can later be
	// claimed by InsertIfAbsent, exactly like Insert.
	var tr2 Tree[string]
	tr2.Insert(mp("10.0.0.0/24"), "a")
	tr2.Insert(mp("10.0.1.0/24"), "b") // creates unset branch 10.0.0.0/23
	if !tr2.InsertIfAbsent(mp("10.0.0.0/23"), "branch") {
		t.Fatal("InsertIfAbsent could not claim structural node")
	}
	if v, ok := tr2.Get(mp("10.0.0.0/23")); !ok || v != "branch" {
		t.Fatalf("Get(branch) = %q %v", v, ok)
	}
}

// TestInsertIfAbsentMatchesInsert checks the single-traversal primitive
// against the Get-then-Insert composition it replaces, over random trees.
func TestInsertIfAbsentMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b Tree[int]
	for i := 0; i < 5000; i++ {
		p := netutil.Prefix{
			Base: netutil.Addr(rng.Uint32()),
			Len:  uint8(rng.Intn(25)),
		}.Canonicalize()
		gotA := a.InsertIfAbsent(p, i)
		_, exists := b.Get(p)
		gotB := false
		if !exists {
			gotB = b.Insert(p, i)
		}
		if gotA != gotB {
			t.Fatalf("insert %v: InsertIfAbsent=%v, Get+Insert=%v", p, gotA, gotB)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len mismatch: %d vs %d", a.Len(), b.Len())
	}
	ea, eb := a.Entries(), b.Entries()
	for i := range ea {
		if ea[i].Prefix != eb[i].Prefix || ea[i].Value != eb[i].Value {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestInserterMatchesInsert checks that Inserter-built trees are
// indistinguishable from Insert-built trees for sorted, reverse-sorted,
// and random insertion orders, including duplicate-prefix replacement.
func TestInserterMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := make([]netutil.Prefix, 0, 600)
	for i := 0; i < 600; i++ {
		base = append(base, netutil.Prefix{Base: netutil.Addr(rng.Uint32()), Len: uint8(4 + rng.Intn(25))}.Canonicalize())
	}
	base = append(base, base[:50]...) // duplicates exercise replacement

	orders := map[string]func([]netutil.Prefix){
		"random": func([]netutil.Prefix) {},
		"sorted": func(ps []netutil.Prefix) {
			sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
		},
		"reverse": func(ps []netutil.Prefix) {
			sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) > 0 })
		},
	}
	for name, arrange := range orders {
		ps := append([]netutil.Prefix(nil), base...)
		arrange(ps)

		want := &Tree[int]{}
		got := &Tree[int]{}
		ins := got.Inserter()
		for i, p := range ps {
			wa := want.Insert(p, i)
			ga := ins.Insert(p, i)
			if wa != ga {
				t.Fatalf("%s: Insert(%v) added=%v, Inserter added=%v", name, p, wa, ga)
			}
		}
		if want.Len() != got.Len() {
			t.Fatalf("%s: Len: want %d, got %d", name, want.Len(), got.Len())
		}
		we, ge := want.Entries(), got.Entries()
		if len(we) != len(ge) {
			t.Fatalf("%s: Entries: want %d, got %d", name, len(we), len(ge))
		}
		for i := range we {
			if we[i].Prefix != ge[i].Prefix || we[i].Value != ge[i].Value || we[i].Depth != ge[i].Depth ||
				we[i].HasChildren != ge[i].HasChildren {
				t.Fatalf("%s: entry %d: want %+v, got %+v", name, i, we[i], ge[i])
			}
		}
		for _, p := range base {
			wp, wv, wok := want.LongestMatch(p)
			gp, gv, gok := got.LongestMatch(p)
			if wp != gp || wv != gv || wok != gok {
				t.Fatalf("%s: LongestMatch(%v) mismatch", name, p)
			}
		}
	}
}

func TestIterMatchesWalk(t *testing.T) {
	// Empty and zero-value iterators are exhausted immediately.
	var empty Tree[int]
	it := empty.Iter()
	if _, _, ok := it.Next(); ok {
		t.Fatal("empty tree iterator yielded an entry")
	}
	var zero Iter[int]
	if _, _, ok := zero.Next(); ok {
		t.Fatal("zero-value iterator yielded an entry")
	}

	// A randomized tree (with deletions, so structural unset nodes exist)
	// must iterate in exactly Walk order with Walk's values.
	rng := rand.New(rand.NewSource(7))
	var tr Tree[int]
	var inserted []netutil.Prefix
	for i := 0; i < 500; i++ {
		p := netutil.Prefix{Base: netutil.Addr(rng.Uint32()), Len: uint8(rng.Intn(33))}.Canonicalize()
		tr.Insert(p, i)
		inserted = append(inserted, p)
	}
	for i := 0; i < 100; i++ {
		tr.Delete(inserted[rng.Intn(len(inserted))])
	}

	type pv struct {
		p netutil.Prefix
		v int
	}
	var want []pv
	tr.Walk(func(e Entry[int]) bool {
		want = append(want, pv{e.Prefix, e.Value})
		return true
	})
	iter := tr.Iter()
	for k, w := range want {
		p, v, ok := iter.Next()
		if !ok {
			t.Fatalf("iterator exhausted at %d, want %d entries", k, len(want))
		}
		if p != w.p || v != w.v {
			t.Fatalf("entry %d: iter (%v, %d) != walk (%v, %d)", k, p, v, w.p, w.v)
		}
	}
	if p, _, ok := iter.Next(); ok {
		t.Fatalf("iterator yielded %v past the %d Walk entries", p, len(want))
	}
}
