package refclassify

import (
	"fmt"
	"strings"
	"testing"

	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/bgp"
	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/whois"
)

// A fuzz world is a list of six-byte records inside 10.0.0.0/8 and
// AS64500–AS64515, so blocks nest, routes cover blocks and ASes meet
// often. The first byte picks the record kind (mod 5):
//
//	0 inetnum: base 10.a.b.c, length 8+d%25; e bits 0–1 portability
//	  (non-portable, portable, legacy, unknown), bits 2–3 holder org
//	  (0 none), bits 5–7 extend the range by that many blocks
//	1 aut-num: AS64500+a%16 registered to org b%4 (0 none)
//	2 route: base 10.a.b.c, length 8+d%25, origin AS64500+e%16, seen
//	  by 1+(e>>4)%3 vantage points
//	3 relationship: AS64500+a%16 and AS64500+b%16, provider-to-customer
//	  when c is odd, peers otherwise
//	4 sibling: AS64500+a%16 belongs to as2org org b%4
const (
	recSize    = 6
	maxRecords = 64
	asBase     = 64500
)

const (
	kindInet = iota
	kindAut
	kindRoute
	kindEdge
	kindSibling
	numKinds
)

var fuzzPortability = [4]whois.Portability{whois.NonPortable, whois.Portable, whois.Legacy, whois.PortabilityUnknown}

// fuzzWorld is a decoded fuzz input: the substrates core reads and the
// reference's input, built side by side from the same records.
type fuzzWorld struct {
	whois *whois.Dataset
	table *bgp.Table
	rel   *asrel.Graph
	orgs  *as2org.Map
	in    input
}

func fuzzOrg(n byte) string {
	if n%4 == 0 {
		return ""
	}
	return fmt.Sprintf("ORG-%d", n%4)
}

// fuzzPrefix is the canonical prefix 10.a.b.c/(8+d%25).
func fuzzPrefix(a, b, c, d byte) netutil.Prefix {
	l := 8 + d%25
	base := 10<<24 | uint32(a)<<16 | uint32(b)<<8 | uint32(c)
	return netutil.Prefix{Base: netutil.Addr(base & mask(l)), Len: l}
}

func decodeWorld(data []byte) *fuzzWorld {
	db := whois.NewDatabase(whois.RIPE)
	w := &fuzzWorld{
		whois: &whois.Dataset{DBs: map[whois.Registry]*whois.Database{whois.RIPE: db}},
		table: &bgp.Table{},
		rel:   asrel.New(),
		orgs:  as2org.New(),
		in:    input{dbs: []*whois.Database{db}, edges: make(map[[2]uint32]bool), orgOf: make(map[uint32]string)},
	}
	rib := make(map[netutil.Prefix]*ribEntry)
	var ribOrder []netutil.Prefix
	for n := 0; n < maxRecords && len(data) >= recSize; n++ {
		r := data[:recSize]
		data = data[recSize:]
		switch r[0] % numKinds {
		case kindInet:
			p := fuzzPrefix(r[1], r[2], r[3], r[4])
			size := uint64(1) << (32 - p.Len)
			last := uint64(p.Base) + size*uint64(1+r[5]>>5) - 1
			if last > 10<<24|0xffffff {
				last = 10<<24 | 0xffffff
			}
			db.InetNums = append(db.InetNums, &whois.InetNum{
				Registry:    whois.RIPE,
				Range:       netutil.Range{First: p.Base, Last: netutil.Addr(last)},
				NetName:     fmt.Sprintf("NET-%d", n),
				Portability: fuzzPortability[r[5]&3],
				OrgID:       fuzzOrg(r[5] >> 2),
			})
		case kindAut:
			db.AutNums = append(db.AutNums, &whois.AutNum{
				Registry: whois.RIPE, Number: asBase + uint32(r[1]%16), OrgID: fuzzOrg(r[2]),
			})
		case kindRoute:
			p := fuzzPrefix(r[1], r[2], r[3], r[4])
			origin, seen := asBase+uint32(r[5]%16), 1+int(r[5]>>4)%3
			for i := 0; i < seen; i++ {
				w.table.AddRoute(p, origin)
			}
			e := rib[p]
			if e == nil {
				e = &ribEntry{pfx: p}
				rib[p] = e
				ribOrder = append(ribOrder, p)
			}
			e.origins = append(e.origins, origin)
			e.vis += seen
		case kindEdge:
			a, b := asBase+uint32(r[1]%16), asBase+uint32(r[2]%16)
			if r[3]&1 == 1 {
				w.rel.AddP2C(a, b)
			} else {
				w.rel.AddP2P(a, b)
			}
			w.in.edges[[2]uint32{a, b}] = true
			w.in.edges[[2]uint32{b, a}] = true
		case kindSibling:
			a, org := asBase+uint32(r[1]%16), fmt.Sprintf("S%d", r[2]%4)
			w.orgs.AddAS(a, org)
			w.in.orgOf[a] = org
		}
	}
	db.Reindex()
	for _, p := range ribOrder {
		e := rib[p]
		e.origins = set(e.origins)
		w.in.rib = append(w.in.rib, *e)
	}
	return w
}

// Record encoders, the inverse of decodeWorld, for writing seeds.

func inetRec(pfx string, port whois.Portability, org byte, extend byte) []byte {
	p := netutil.MustParsePrefix(pfx)
	pi := byte(0)
	for i, fp := range fuzzPortability {
		if fp == port {
			pi = byte(i)
		}
	}
	return []byte{kindInet, byte(p.Base >> 16), byte(p.Base >> 8), byte(p.Base), p.Len - 8, pi | org<<2 | extend<<5}
}

func autRec(asn uint32, org byte) []byte {
	return []byte{kindAut, byte(asn - asBase), org, 0, 0, 0}
}

func routeRec(pfx string, origin uint32, seen byte) []byte {
	p := netutil.MustParsePrefix(pfx)
	return []byte{kindRoute, byte(p.Base >> 16), byte(p.Base >> 8), byte(p.Base), p.Len - 8, byte(origin-asBase) | (seen-1)<<4}
}

func edgeRec(a, b uint32, p2c bool) []byte {
	c := byte(0)
	if p2c {
		c = 1
	}
	return []byte{kindEdge, byte(a - asBase), byte(b - asBase), c, 0, 0}
}

func siblingRec(asn uint32, org byte) []byte {
	return []byte{kindSibling, byte(asn - asBase), org, 0, 0, 0}
}

func world(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// fuzzSeeds are hand-written worlds, one per tie-break and corner case
// DESIGN §1 records.
var fuzzSeeds = [][]byte{
	// Two objects decompose to the same /16: the first in dump order
	// owns it, so its org is the holder of the leaf below.
	world(
		inetRec("10.1.0.0/16", whois.Portable, 1, 0),
		inetRec("10.1.0.0/16", whois.Portable, 2, 0),
		inetRec("10.1.2.0/24", whois.NonPortable, 0, 0),
		autRec(64501, 1),
		autRec(64502, 2),
		routeRec("10.1.2.0/24", 64502, 3),
	),
	// A non-portable copy listed first turns the /16 into a classified
	// leaf of its own only if nothing else is inside it.
	world(
		inetRec("10.3.0.0/16", whois.NonPortable, 1, 0),
		inetRec("10.3.0.0/16", whois.Portable, 2, 0),
		inetRec("10.2.0.0/15", whois.Portable, 3, 0),
		routeRec("10.3.0.0/16", 64503, 2),
	),
	// Blocks at the /24 cut-off: a /24 and a range that decomposes into
	// a /24 and a /25; /25s are tree nodes only under
	// MaxPrefixLen 32.
	world(
		inetRec("10.4.0.0/16", whois.Portable, 1, 0),
		inetRec("10.4.1.0/24", whois.NonPortable, 0, 0),
		inetRec("10.4.2.0/25", whois.NonPortable, 0, 2),
		inetRec("10.4.4.0/25", whois.NonPortable, 0, 0),
		routeRec("10.4.1.0/24", 64504, 3),
		routeRec("10.4.4.0/25", 64505, 3),
		routeRec("10.4.0.0/16", 64501, 3),
		autRec(64501, 1),
	),
	// MOAS: a leaf announced by an unrelated and a related origin is a
	// delegated customer; with the relationship gone it is leased.
	world(
		inetRec("10.5.0.0/16", whois.Portable, 1, 0),
		inetRec("10.5.7.0/24", whois.NonPortable, 0, 0),
		autRec(64501, 1),
		routeRec("10.5.0.0/16", 64501, 3),
		routeRec("10.5.7.0/24", 64509, 3),
		routeRec("10.5.7.0/24", 64510, 1),
		edgeRec(64501, 64510, true),
		siblingRec(64509, 2),
		siblingRec(64501, 2),
	),
	// The root is not announced itself, only through a covering /8 by
	// an AS the holder did not register. The leaf's origin is a
	// customer of that AS, so it is a delegated customer through the
	// root's BGP origin alone; the second leaf's origin is unrelated.
	world(
		inetRec("10.6.0.0/16", whois.Portable, 1, 0),
		inetRec("10.6.9.0/24", whois.NonPortable, 0, 0),
		inetRec("10.6.10.0/24", whois.NonPortable, 0, 0),
		autRec(64501, 1),
		routeRec("10.0.0.0/8", 64506, 3),
		routeRec("10.6.9.0/24", 64507, 3),
		routeRec("10.6.10.0/24", 64508, 3),
		edgeRec(64506, 64507, true),
	),
	// The least-specific covering prefix is seen by one vantage point
	// and a more specific cover by three: under MinVisibility 2 the
	// root has no origin.
	world(
		inetRec("10.8.0.0/16", whois.Portable, 1, 0),
		inetRec("10.8.3.0/24", whois.NonPortable, 0, 0),
		routeRec("10.0.0.0/8", 64506, 1),
		routeRec("10.8.0.0/15", 64508, 3),
		routeRec("10.8.3.0/24", 64511, 3),
		autRec(64508, 1),
	),
	// A non-portable block with nothing around it is an orphan; one
	// with an unknown-status block around it is too.
	world(
		inetRec("10.9.0.0/24", whois.NonPortable, 0, 0),
		inetRec("10.10.0.0/16", whois.PortabilityUnknown, 1, 0),
		inetRec("10.10.1.0/24", whois.NonPortable, 0, 0),
		inetRec("10.11.0.0/16", whois.Legacy, 1, 0),
		inetRec("10.11.1.0/24", whois.NonPortable, 0, 0),
		routeRec("10.9.0.0/24", 64512, 3),
	),
	// A root without a holder org: aut-nums without an org are not its
	// ASes.
	world(
		inetRec("10.12.0.0/16", whois.Portable, 0, 0),
		inetRec("10.12.5.0/24", whois.NonPortable, 0, 0),
		autRec(64513, 0),
		routeRec("10.12.5.0/24", 64513, 3),
	),
}

// FuzzClassifyAgainstReference builds a small world from the fuzz bytes
// and requires core and the reference to agree on every leaf, under
// every ablation run in sequence on one pipeline with a tree cache.
func FuzzClassifyAgainstReference(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeWorld(data)
		p := &core.Pipeline{Whois: w.whois, Table: w.table, Rel: w.rel, Orgs: w.orgs, Trees: core.NewTreeCache()}
		for _, opts := range ablations {
			p.Opts = opts
			if d := diff(p.Infer(), classify(w.in, opts)); len(d) > 0 {
				t.Fatalf("options %+v: core and reference disagree:\n\t%s", opts, strings.Join(d, "\n\t"))
			}
		}
	})
}
