package core

// BenchmarkInferRegion measures the intra-registry sharded hot path in
// isolation: one registry's allocation tree, origin resolution, and
// leaf classification, with the tree cache warm so the numbers track
// classification, not tree construction. Run with -cpu 1,4,8 for the
// shard-scaling points recorded in the README's performance table.

import (
	"fmt"
	"runtime"
	"testing"

	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/bgp"
	"ipleasing/internal/netutil"
	"ipleasing/internal/whois"
)

// benchRegion builds a deterministic single-registry world with the
// paper's real-world skew: root 0 holds about half of all leaves (the
// RIPE shape that motivates work stealing), and the remaining roots
// split the rest. Leaf announcements cycle through the four
// classification groups so every code path runs.
func benchRegion(roots, leaves int) (*Pipeline, *whois.Database) {
	ds := whois.NewDataset()
	db := ds.DB(whois.RIPE)
	tbl := &bgp.Table{}
	rel := asrel.New()
	orgs := as2org.New()

	bigRoot := leaves / 2
	perSmall := (leaves - bigRoot) / (roots - 1)
	leafN := 0
	for r := 0; r < roots; r++ {
		rootASN := uint32(64000 + r)
		orgID := fmt.Sprintf("ORG-B%d", r)
		rootPfx := netutil.Prefix{Base: netutil.Addr(uint32(10)<<24 | uint32(r)<<16), Len: 16}
		db.Orgs = append(db.Orgs, &whois.Org{Registry: whois.RIPE, ID: orgID, Name: orgID})
		db.AutNums = append(db.AutNums, &whois.AutNum{Registry: whois.RIPE, Number: rootASN, OrgID: orgID})
		db.InetNums = append(db.InetNums, &whois.InetNum{
			Registry: whois.RIPE, Range: netutil.RangeOf(rootPfx), Status: "ALLOCATED PA",
			Portability: whois.Portable, OrgID: orgID,
		})
		tbl.AddRoute(rootPfx, rootASN)

		n := perSmall
		if r == 0 {
			n = bigRoot
		}
		if n > 250 {
			n = 250 // a /16 holds at most 256 /24s
		}
		for j := 0; j < n; j++ {
			leafPfx := netutil.Prefix{Base: rootPfx.Base | netutil.Addr(uint32(j)<<8), Len: 24}
			db.InetNums = append(db.InetNums, &whois.InetNum{
				Registry: whois.RIPE, Range: netutil.RangeOf(leafPfx), Status: "ASSIGNED PA",
				Portability: whois.NonPortable, MntBy: []string{"MNT-" + orgID},
			})
			switch leafN % 4 {
			case 0: // aggregated: root announced, leaf silent
			case 1: // delegated customer: related origin
				cust := uint32(65000 + leafN%500)
				rel.AddP2C(rootASN, cust)
				tbl.AddRoute(leafPfx, cust)
			case 2: // leased: unrelated origin
				tbl.AddRoute(leafPfx, uint32(4200000000+leafN%1000))
			case 3: // sibling ISP customer via as2org
				sib := uint32(66000 + leafN%300)
				orgs.AddAS(sib, orgID)
				orgs.AddAS(rootASN, orgID)
				tbl.AddRoute(leafPfx, sib)
			}
			leafN++
		}
	}
	db.Reindex()
	return &Pipeline{Whois: ds, Table: tbl, Rel: rel, Orgs: orgs, Trees: NewTreeCache()}, db
}

func BenchmarkInferRegion(b *testing.B) {
	p, db := benchRegion(64, 4096)
	rr, _ := p.inferRegion(db) // warm the tree cache and freeze the table
	p.Table.Freeze()
	if len(rr.Inferences) == 0 {
		b.Fatal("empty region")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, _ := p.inferRegion(db)
		if len(rr.Inferences) == 0 {
			b.Fatal("empty region")
		}
	}
}

// TestInferRegionShardDeterminism pins the tentpole contract: the
// sharded region inference produces bit-identical results — same
// inference order, same counts — at every worker width.
func TestInferRegionShardDeterminism(t *testing.T) {
	p, db := benchRegion(16, 512)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	want, shards := p.inferRegion(db)
	if shards != 1 {
		t.Fatalf("GOMAXPROCS 1 used %d shards", shards)
	}
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got, _ := p.inferRegion(db)
		if len(got.Inferences) != len(want.Inferences) {
			t.Fatalf("procs=%d: %d inferences, want %d",
				procs, len(got.Inferences), len(want.Inferences))
		}
		for i := range got.Inferences {
			g, w := &got.Inferences[i], &want.Inferences[i]
			if g.Prefix != w.Prefix || g.Category != w.Category || g.Root != w.Root {
				t.Fatalf("procs=%d: inference %d = %v/%v, want %v/%v",
					procs, i, g.Prefix, g.Category, w.Prefix, w.Category)
			}
		}
		if got.Counts != want.Counts || got.TotalLeaves != want.TotalLeaves {
			t.Fatalf("procs=%d: counts %v/%d, want %v/%d",
				procs, got.Counts, got.TotalLeaves, want.Counts, want.TotalLeaves)
		}
	}
}

// TestBuildSegments checks the shard plan against the figure-2 world:
// one segment per allocation-forest root, output offsets matching the
// serial walk's classified-leaf order.
func TestBuildSegments(t *testing.T) {
	p := figure2World()
	db := p.Whois.DB(whois.RIPE)
	tree := p.BuildTree(db)
	entries := tree.Entries()
	segs, total := buildSegments(entries)

	nroots := 0
	for i := range entries {
		if entries[i].Depth == 0 {
			nroots++
		}
	}
	if len(segs) != nroots {
		t.Fatalf("%d segments, want %d (one per root)", len(segs), nroots)
	}
	// Segments tile the entries exactly, and output offsets prefix-sum
	// the classifiable leaves.
	next, out := int32(0), int32(0)
	for _, s := range segs {
		if s.lo != next {
			t.Fatalf("segment starts at %d, want %d", s.lo, next)
		}
		if s.out != out {
			t.Fatalf("segment out %d, want %d", s.out, out)
		}
		for k := s.lo; k < s.hi; k++ {
			if k > s.lo && entries[k].Depth == 0 {
				t.Fatalf("entry %d is a root inside segment [%d,%d)", k, s.lo, s.hi)
			}
			if classifiable(&entries[k]) {
				out++
			}
		}
		next = s.hi
	}
	if next != int32(len(entries)) || out != int32(total) {
		t.Fatalf("segments cover %d/%d entries, %d/%d outputs", next, len(entries), out, total)
	}
	// The figure-2 world classifies 7 leaves (6 + 1 orphan).
	if total != 7 {
		t.Fatalf("total classified = %d, want 7", total)
	}
}
