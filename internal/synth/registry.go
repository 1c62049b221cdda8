package synth

import (
	"fmt"
	"slices"

	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/whois"
)

// holderInfo is a generated IP-holder organisation.
type holderInfo struct {
	orgID string
	asn   uint32
	mnt   string
}

// rootCtx is an allocation root being filled with leaves.
type rootCtx struct {
	prefix    netutil.Prefix
	holder    holderInfo
	announced bool
	used      int // /24 slots consumed
}

// routeInfo records an announced prefix and its primary origin for the
// RPKI and abuse bookkeeping.
type routeInfo struct {
	prefix netutil.Prefix
	origin uint32
	leased bool // inferred-leased (abuse analyses group by inference)
}

// cellBudget is the per-registry remaining plant budget by inferred
// category.
type cellBudget struct {
	unused, agg, isp, l3, del, l4 int
}

// newHolder creates a holder organisation with a registered ASN.
// ARIN and LACNIC have no maintainer objects — their managing handle is
// the organisation ID itself (paper §5.1) — so the handle doubles as the
// org ID there and survives the dialect round trip.
func (g *gen) newHolder(reg whois.Registry, name string) holderInfo {
	g.orgSeq++
	h := holderInfo{
		orgID: fmt.Sprintf("ORG-%s-H%d", reg, g.orgSeq),
		asn:   g.asn(),
		mnt:   fmt.Sprintf("MNT-%s-H%d", reg, g.orgSeq),
	}
	if reg == whois.ARIN || reg == whois.LACNIC {
		h.mnt = h.orgID
	}
	if name == "" {
		name = fmt.Sprintf("%s Holder %d", reg, g.orgSeq)
	}
	db := g.w.Whois.DB(reg)
	db.Orgs = append(db.Orgs, &whois.Org{
		Registry: reg, ID: h.orgID, Name: name, Country: g.country(), MntRef: []string{h.mnt},
	})
	db.AutNums = append(db.AutNums, &whois.AutNum{
		Registry: reg, Number: h.asn, Name: fmt.Sprintf("AS-%s-%d", reg, g.orgSeq), OrgID: h.orgID,
	})
	g.w.Orgs.AddAS(h.asn, h.orgID)
	g.w.Orgs.AddOrg(h.orgID, name, g.country())
	g.attach(reg, h.asn)
	return h
}

// customerMnt returns the maintainer for a non-leased customer leaf.
// Most customers stay under the provider's maintainer, but roughly one in
// ten registers its own — the self-maintained customers that turn into
// false positives under the maintainer-diff baseline (§6.1).
func (g *gen) customerMnt(root *rootCtx) string {
	if g.rng.Intn(10) == 0 {
		g.custMntSeq++
		return fmt.Sprintf("CUST-SELF-MNT-%d", g.custMntSeq)
	}
	return root.holder.mnt
}

// siblingOf returns (creating lazily) a second AS registered to the same
// organisation as the holder, with no relationship edge to it.
func (g *gen) siblingOf(reg whois.Registry, h holderInfo) uint32 {
	if a, ok := g.siblingASN[h.orgID]; ok {
		return a
	}
	a := g.asn()
	g.w.Orgs.AddAS(a, h.orgID) // same organisation in as2org
	g.attach(reg, a)           // own transit, no edge to the holder
	db := g.w.Whois.DB(reg)
	db.AutNums = append(db.AutNums, &whois.AutNum{
		Registry: reg, Number: a, Name: fmt.Sprintf("AS-SIB-%d", a),
	})
	g.siblingASN[h.orgID] = a
	return a
}

// customerOf returns (creating lazily) a customer AS of the holder, used
// as the origin for ISP-customer and delegated-customer leaves.
func (g *gen) customerOf(reg whois.Registry, h holderInfo) uint32 {
	cs := g.custASN[h.orgID]
	if len(cs) < 2 {
		a := g.asn()
		g.w.Rel.AddP2C(h.asn, a)
		orgID := fmt.Sprintf("ORG-CUST-%d", a)
		g.w.Orgs.AddAS(a, orgID)
		g.w.Orgs.AddOrg(orgID, fmt.Sprintf("Customer Network %d", a), g.country())
		g.custASN[h.orgID] = append(cs, a)
		return a
	}
	return cs[g.rng.Intn(len(cs))]
}

// newRoot allocates a root block for the holder; announced roots are
// originated by the holder's ASN.
func (g *gen) newRoot(reg whois.Registry, h holderInfo, announced bool) *rootCtx {
	p := g.allocBlock(reg, rootPrefixLen)
	db := g.w.Whois.DB(reg)
	db.InetNums = append(db.InetNums, &whois.InetNum{
		Registry:    reg,
		Range:       netutil.RangeOf(p),
		NetName:     fmt.Sprintf("NET-%s", h.orgID),
		Status:      statusFor(reg, whois.Portable),
		Portability: whois.Portable,
		OrgID:       h.orgID,
		MntBy:       []string{h.mnt},
		Country:     g.country(),
	})
	if announced {
		g.announce(p, h.asn)
		g.nonleased = append(g.nonleased, routeInfo{prefix: p, origin: h.asn})
	}
	return &rootCtx{prefix: p, holder: h, announced: announced}
}

// nextLeaf carves the next /24 (occasionally /23) out of the root.
// Returns false when the root is full.
func (g *gen) nextLeaf(r *rootCtx) (netutil.Prefix, bool) {
	slots := 1
	length := uint8(24)
	if g.rng.Intn(12) == 0 { // occasional /23 leaves
		slots, length = 2, 23
		if r.used%2 == 1 {
			r.used++ // align to /23 boundary
		}
	}
	if r.used+slots > rootCapacity {
		return netutil.Prefix{}, false
	}
	base := uint32(r.prefix.Base) + uint32(r.used)<<8
	r.used += slots
	return netutil.Prefix{Base: netutil.Addr(base), Len: length}, true
}

// plantOpts carries the per-leaf knobs.
type plantOpts struct {
	forcedMnt      string
	forcedOrigin   uint32
	brokerManaged  bool
	actuallyLeased *bool // override the category-derived truth
	inactive       bool
}

// plantLeaf registers one non-portable leaf under root and wires BGP and
// relationships so the inference assigns `intended`.
func (g *gen) plantLeaf(reg whois.Registry, root *rootCtx, intended core.Category, opts plantOpts) (netutil.Prefix, bool) {
	p, ok := g.nextLeaf(root)
	if !ok {
		return netutil.Prefix{}, false
	}
	mnt := opts.forcedMnt
	brokerManaged := opts.brokerManaged
	leased := intended == core.LeasedNoRootOrigin || intended == core.LeasedWithRootOrigin
	var origin uint32
	switch intended {
	case core.Unused, core.AggregatedCustomer:
		// Not announced.
		if mnt == "" {
			mnt = g.customerMnt(root)
		}
	case core.ISPCustomer, core.DelegatedCustomer:
		if mnt == "" {
			mnt = g.customerMnt(root)
		}
		origin = root.holder.asn
		switch {
		case opts.forcedOrigin != 0:
			origin = opts.forcedOrigin
		case g.rng.Intn(8) == 0:
			// A sibling AS of the holder: same as2org organisation but
			// no asrel edge. Only the sibling expansion keeps this a
			// customer — the DESIGN.md no-siblings ablation turns these
			// into false leases, the paper's Vodafone mechanism.
			origin = g.siblingOf(reg, root.holder)
		case g.rng.Intn(2) == 0:
			origin = g.customerOf(reg, root.holder)
		}
	case core.LeasedNoRootOrigin, core.LeasedWithRootOrigin:
		if mnt == "" {
			mnt, brokerManaged = g.pickFacilitator(reg)
			if mnt == "HOLDER-DIRECT-MNT" {
				// The holder leases directly under its own maintainer:
				// invisible to the maintainer-diff baseline (§6.1).
				mnt = root.holder.mnt
			}
		}
		origin = opts.forcedOrigin
		if origin == 0 {
			origin = g.pickLeaseOriginator()
		}
	}

	// Leased blocks are registered in the lessee's operating country
	// (the Table-3 narrative: holders leasing into dozens of countries);
	// customer blocks stay near their provider.
	leafCountry := g.country()
	if leased && origin != 0 {
		if orgID, ok := g.w.Orgs.OrgOf(origin); ok {
			if cc := g.w.Orgs.Country(orgID); cc != "" {
				leafCountry = cc
			}
		}
	}
	db := g.w.Whois.DB(reg)
	db.InetNums = append(db.InetNums, &whois.InetNum{
		Registry:    reg,
		Range:       netutil.RangeOf(p),
		NetName:     fmt.Sprintf("NET-LEAF-%s", p),
		Status:      statusFor(reg, whois.NonPortable),
		Portability: whois.NonPortable,
		MntBy:       []string{mnt},
		Country:     leafCountry,
	})
	// Occasional hyper-specific registration (> /24) inside the leaf,
	// for internal infrastructure: the paper's methodology removes these
	// (§5.1 step 2); the maxlen ablation keeps them.
	if g.rng.Intn(32) == 0 {
		hs := netutil.Prefix{Base: p.Base, Len: 26}
		db.InetNums = append(db.InetNums, &whois.InetNum{
			Registry:    reg,
			Range:       netutil.RangeOf(hs),
			NetName:     fmt.Sprintf("NET-INFRA-%s", hs),
			Status:      statusFor(reg, whois.NonPortable),
			Portability: whois.NonPortable,
			MntBy:       []string{mnt},
		})
	}
	if origin != 0 {
		g.announce(p, origin)
		ri := routeInfo{prefix: p, origin: origin, leased: leased}
		if leased {
			g.leased = append(g.leased, ri)
		} else {
			g.nonleased = append(g.nonleased, ri)
		}
	}
	actuallyLeased := leased
	if opts.actuallyLeased != nil {
		actuallyLeased = *opts.actuallyLeased
	}
	g.w.Truth = append(g.w.Truth, TruthRecord{
		Registry:       reg,
		Prefix:         p,
		Intended:       intended,
		ActuallyLeased: actuallyLeased,
		BrokerManaged:  brokerManaged,
		Inactive:       opts.inactive,
	})
	return p, true
}

// plantMany plants n leaves of one intended category, creating roots (and
// generic holders) as needed. Roots are shared via the supplied pool.
// Announced roots are occasionally created as an aggregated pair: two
// consecutive /18 allocations announced only as their covering /17, the
// case the paper's least-specific covering lookup exists for (§5.1 step
// 4).
func (g *gen) plantMany(reg whois.Registry, pool *[]*rootCtx, announced bool, n int, intended core.Category, opts plantOpts) {
	for planted := 0; planted < n; {
		for len(*pool) > 0 && (*pool)[len(*pool)-1].used >= rootCapacity {
			*pool = (*pool)[:len(*pool)-1] // drop full roots
		}
		if len(*pool) == 0 {
			if announced && g.rng.Intn(6) == 0 {
				a, b := g.newAggregatedRootPair(reg, g.newHolder(reg, ""))
				*pool = append(*pool, a, b)
			} else {
				*pool = append(*pool, g.newRoot(reg, g.newHolder(reg, ""), announced))
			}
		}
		root := (*pool)[len(*pool)-1]
		if _, ok := g.plantLeaf(reg, root, intended, opts); ok {
			planted++
		}
	}
}

// newAggregatedRootPair registers two consecutive /18 root allocations for
// the holder but announces only the covering /17 aggregate in BGP.
func (g *gen) newAggregatedRootPair(reg whois.Registry, h holderInfo) (*rootCtx, *rootCtx) {
	agg := g.allocBlock(reg, rootPrefixLen-1) // /17
	lo, hi, ok := agg.SplitHalves()           // two /18s
	if !ok {
		// Unreachable while rootPrefixLen-1 < 32; registering the
		// aggregate unsplit keeps the generator total regardless.
		lo, hi = agg, agg
	}
	db := g.w.Whois.DB(reg)
	for _, p := range []netutil.Prefix{lo, hi} {
		db.InetNums = append(db.InetNums, &whois.InetNum{
			Registry:    reg,
			Range:       netutil.RangeOf(p),
			NetName:     fmt.Sprintf("NET-%s", h.orgID),
			Status:      statusFor(reg, whois.Portable),
			Portability: whois.Portable,
			OrgID:       h.orgID,
			MntBy:       []string{h.mnt},
			Country:     g.country(),
		})
	}
	g.announce(agg, h.asn)
	g.nonleased = append(g.nonleased, routeInfo{prefix: agg, origin: h.asn})
	return &rootCtx{prefix: lo, holder: h, announced: true},
		&rootCtx{prefix: hi, holder: h, announced: true}
}

// generateRegistry plants one registry's Table-1 shaped leaf population
// plus its evaluation artefacts.
func (g *gen) generateRegistry(reg whois.Registry) {
	s := g.cfg.scale()
	cell := g.cfg.table1()[reg]
	b := cellBudget{
		unused: scaleCount(cell.Unused, s),
		agg:    scaleCount(cell.Aggregated, s),
		isp:    scaleCount(cell.ISPCust, s),
		l3:     scaleCount(cell.Leased3, s),
		del:    scaleCount(cell.Delegated, s),
		l4:     scaleCount(cell.Leased4, s),
	}
	ev := g.cfg.eval()

	// ---- The Figure-3 timeline prefix lives in RIPE, leased via IPXO.
	if reg == whois.RIPE && b.l3 > 0 {
		h := g.newHolder(reg, "Timeline Holdings")
		root := g.newRoot(reg, h, false)
		ipxo := g.brokerFacIPXO()
		p, _ := g.plantLeaf(reg, root, core.LeasedNoRootOrigin, plantOpts{
			forcedMnt: ipxo, forcedOrigin: timelineASNs[len(timelineASNs)-1], brokerManaged: true,
		})
		g.timelinePrefix = p
		b.l3--
	}

	// ---- Table-3 top holders: dedicated lease-heavy holders.
	for _, th := range g.cfg.topHolders()[reg] {
		want := scaleCount(th.Leases, s)
		n3 := want * b.l3 / max1(b.l3+b.l4)
		if n3 > b.l3 {
			n3 = b.l3
		}
		n4 := want - n3
		if n4 > b.l4 {
			n4 = b.l4
			n3 = min2(want-n4, b.l3)
		}
		h := g.newHolder(reg, th.Name)
		opts := plantOpts{}
		if th.Facilitates {
			// Holder-run leasing platform (Cloud Innovation, §6.3): the
			// platform maintainer is registered to the holder org, so
			// facilitator rankings resolve it to the holder's name.
			opts.forcedMnt = fmt.Sprintf("MNT-PLATFORM-%s", h.orgID)
			db := g.w.Whois.DB(reg)
			org := db.Orgs[len(db.Orgs)-1]
			org.MntRef = append(org.MntRef, opts.forcedMnt)
		}
		var silent, ann []*rootCtx
		g.plantManyForHolder(reg, &silent, h, false, n3, core.LeasedNoRootOrigin, opts)
		g.plantManyForHolder(reg, &ann, h, true, n4, core.LeasedWithRootOrigin, opts)
		b.l3 -= n3
		b.l4 -= n4
	}

	// ---- Evaluation ISPs registered in this region (§5.3 negatives).
	for _, isp := range g.cfg.evalISPs() {
		if isp.Registry != reg {
			continue
		}
		g.plantEvalISP(reg, isp, &b)
	}

	// ---- RIPE-only evaluation artefacts (§6.2).
	if reg == whois.RIPE {
		g.plantBrokerISP(reg, scaleCount(ev.BrokerISPPrefixes, s), &b)
		g.plantInactiveLeases(reg, scaleCount(ev.InactiveLeases, s), &b)
		g.plantLegacyLeases(reg, scaleCount(ev.LegacyLeases, s))
	}
	if reg == whois.ARIN {
		g.plantInactiveLeases(reg, scaleCount(138, s)/2, &b) // minor ARIN inactive tail
	}

	// ---- Generic fill of the remaining budgets. Leased leaves are
	// spread over many small holders so the named Table-3 holders keep
	// their top ranks; the per-holder quota is capped well below the
	// registry's top named holder. The non-leased categories pack roots
	// densely.
	quotaCap := 1
	if named := g.cfg.topHolders()[reg]; len(named) > 0 {
		quotaCap = scaleCount(named[0].Leases, s) / 3
	}
	if quotaCap < 1 {
		quotaCap = 1
	}
	if quotaCap > 6 {
		quotaCap = 6
	}
	var silentPool, annPool []*rootCtx
	g.plantMany(reg, &silentPool, false, b.unused, core.Unused, plantOpts{})
	g.plantMany(reg, &silentPool, false, b.isp, core.ISPCustomer, plantOpts{})
	g.plantSpreadLeases(reg, false, b.l3, core.LeasedNoRootOrigin, quotaCap)
	g.plantMany(reg, &annPool, true, b.agg, core.AggregatedCustomer, plantOpts{})
	g.plantMany(reg, &annPool, true, b.del, core.DelegatedCustomer, plantOpts{})
	g.plantSpreadLeases(reg, true, b.l4, core.LeasedWithRootOrigin, quotaCap)
}

// plantSpreadLeases plants n leased leaves across fresh small holders,
// producing the long-tailed holder distribution of the real market.
func (g *gen) plantSpreadLeases(reg whois.Registry, announced bool, n int, intended core.Category, quotaCap int) {
	for planted := 0; planted < n; {
		h := g.newHolder(reg, "")
		root := g.newRoot(reg, h, announced)
		quota := 1 + g.rng.Intn(quotaCap)
		for q := 0; q < quota && planted < n; q++ {
			if _, ok := g.plantLeaf(reg, root, intended, plantOpts{}); ok {
				planted++
			} else {
				break
			}
		}
	}
}

// plantManyForHolder is plantMany with a fixed holder.
func (g *gen) plantManyForHolder(reg whois.Registry, pool *[]*rootCtx, h holderInfo, announced bool, n int, intended core.Category, opts plantOpts) {
	for planted := 0; planted < n; {
		var root *rootCtx
		if len(*pool) > 0 {
			root = (*pool)[len(*pool)-1]
		}
		if root == nil || root.used >= rootCapacity {
			root = g.newRoot(reg, h, announced)
			*pool = append(*pool, root)
		}
		if _, ok := g.plantLeaf(reg, root, intended, opts); ok {
			planted++
		}
	}
}

// plantEvalISP creates one of the five negative-set ISPs: its org,
// maintainer, announced roots, customer prefixes, and (for Vodafone) the
// subsidiary false positives.
func (g *gen) plantEvalISP(reg whois.Registry, isp EvalISP, b *cellBudget) {
	s := g.cfg.scale()
	h := g.newHolder(reg, isp.Name)
	negatives := scaleCount(isp.Negatives, s)
	if negatives > b.del {
		negatives = b.del
	}
	var pool []*rootCtx
	g.plantManyForHolder(reg, &pool, h, true, negatives, core.DelegatedCustomer, plantOpts{
		forcedMnt: h.mnt,
	})
	b.del -= negatives

	// Subsidiary organisations with their own unrelated ASNs: announced
	// leaves become leased false positives (the Vodafone effect).
	if isp.Subsidiaries > 0 {
		subASNs := make([]uint32, 0, isp.Subsidiaries)
		for i := 0; i < isp.Subsidiaries; i++ {
			a := g.asn()
			orgID := fmt.Sprintf("ORG-SUB-%s-%d", h.orgID, i)
			g.w.Orgs.AddAS(a, orgID)
			g.w.Orgs.AddOrg(orgID, fmt.Sprintf("%s Subsidiary %d", isp.Name, i), g.country())
			// Deliberately no asrel edge and a distinct as2org org:
			// the relationship is invisible to the inference.
			g.w.Rel.AddP2C(g.tier1[g.rng.Intn(len(g.tier1))], a)
			subASNs = append(subASNs, a)
			// Register the subsidiary org in WHOIS too (17 organisation
			// objects, per §6.2).
			db := g.w.Whois.DB(reg)
			db.Orgs = append(db.Orgs, &whois.Org{
				Registry: reg, ID: orgID, Name: fmt.Sprintf("%s Subsidiary %d", isp.Name, i),
			})
		}
		fps := scaleCount(isp.SubsidiaryFPs, s)
		if fps > b.l4 {
			fps = b.l4
		}
		notLeased := false
		for planted := 0; planted < fps; {
			var root *rootCtx
			if len(pool) > 0 {
				root = pool[len(pool)-1]
			}
			if root == nil || root.used >= rootCapacity {
				root = g.newRoot(reg, h, true)
				pool = append(pool, root)
			}
			_, ok := g.plantLeaf(reg, root, core.LeasedWithRootOrigin, plantOpts{
				forcedMnt:      h.mnt,
				forcedOrigin:   subASNs[g.rng.Intn(len(subASNs))],
				actuallyLeased: &notLeased,
			})
			if ok {
				planted++
			}
		}
		b.l4 -= fps
	}

	// The non-Vodafone false positives (§6.2's remaining 11): leaves
	// with genuinely unobserved relationships, attached to the first
	// RIPE ISP without subsidiaries.
	if reg == whois.RIPE && isp.Subsidiaries == 0 {
		fps := scaleCount(g.cfg.eval().OtherFPs, s)
		if fps > b.l3 {
			fps = b.l3
		}
		rogue := g.asn() // no relationships at all beyond transit
		g.w.Rel.AddP2C(g.tier1[0], rogue)
		g.w.Orgs.AddAS(rogue, "ORG-ROGUE-"+h.orgID)
		g.w.Orgs.AddOrg("ORG-ROGUE-"+h.orgID, isp.Name+" Partner Network", g.country())
		notLeased := false
		var silent []*rootCtx
		for planted := 0; planted < fps; {
			var root *rootCtx
			if len(silent) > 0 {
				root = silent[len(silent)-1]
			}
			if root == nil || root.used >= rootCapacity {
				root = g.newRoot(reg, h, false)
				silent = append(silent, root)
			}
			_, ok := g.plantLeaf(reg, root, core.LeasedNoRootOrigin, plantOpts{
				forcedMnt:      h.mnt,
				forcedOrigin:   rogue,
				actuallyLeased: &notLeased,
			})
			if ok {
				planted++
			}
		}
		b.l3 -= fps
	}
	g.evalISPMnts = append(g.evalISPMnts, h.mnt)
}

// plantBrokerISP creates brokers that also provide connectivity: their
// managed prefixes are announced through the broker's own AS, so they are
// not leases and must be manually excluded during curation (§6.2's 1,621
// filtered prefixes).
func (g *gen) plantBrokerISP(reg whois.Registry, n int, b *cellBudget) {
	if n > b.del {
		n = b.del
	}
	db := g.w.Whois.DB(reg)
	// Pick three existing broker orgs with maintainers and upgrade them
	// to holders with ASNs.
	var upgraded []holderInfo
	for _, org := range db.Orgs {
		if len(upgraded) == 3 {
			break
		}
		if len(org.MntRef) == 1 && g.brokerMnt[reg][org.MntRef[0]] {
			h := holderInfo{orgID: org.ID, asn: g.asn(), mnt: org.MntRef[0]}
			db.AutNums = append(db.AutNums, &whois.AutNum{
				Registry: reg, Number: h.asn, Name: "AS-" + org.ID, OrgID: org.ID,
			})
			g.w.Orgs.AddAS(h.asn, org.ID)
			g.w.Orgs.AddOrg(org.ID, org.Name, g.country())
			g.attach(reg, h.asn)
			upgraded = append(upgraded, h)
		}
	}
	if len(upgraded) == 0 {
		return
	}
	notLeased := false
	for planted := 0; planted < n; {
		h := upgraded[planted%len(upgraded)]
		root := g.newRoot(reg, h, true)
		// The root itself carries the broker's maintainer, so the
		// curation step finds it too; it is held, not leased — another
		// manual exclusion.
		g.w.Exclusions = append(g.w.Exclusions, root.prefix)
		for root.used < rootCapacity && planted < n {
			p, ok := g.plantLeaf(reg, root, core.DelegatedCustomer, plantOpts{
				forcedMnt:      h.mnt,
				forcedOrigin:   h.asn,
				brokerManaged:  true,
				actuallyLeased: &notLeased,
			})
			if !ok {
				break
			}
			g.w.Exclusions = append(g.w.Exclusions, p)
			planted++
		}
	}
	b.del -= n
}

// brokerMnts returns reg's broker maintainer handles in sorted order, so
// that draws from the list follow the seed, not map order.
func (g *gen) brokerMnts(reg whois.Registry) []string {
	mnts := make([]string, 0, len(g.brokerMnt[reg]))
	for m := range g.brokerMnt[reg] {
		mnts = append(mnts, m)
	}
	slices.Sort(mnts)
	return mnts
}

// plantInactiveLeases creates broker-managed blocks that are leased but
// not announced: the inference classifies them Unused (the paper's
// dominant false-negative mode).
func (g *gen) plantInactiveLeases(reg whois.Registry, n int, b *cellBudget) {
	if n == 0 || len(g.brokerMnt[reg]) == 0 {
		return
	}
	if n > b.unused {
		n = b.unused
	}
	mnts := g.brokerMnts(reg)
	leased := true
	var pool []*rootCtx
	for planted := 0; planted < n; {
		var root *rootCtx
		if len(pool) > 0 {
			root = pool[len(pool)-1]
		}
		if root == nil || root.used >= rootCapacity {
			root = g.newRoot(reg, g.newHolder(reg, ""), false)
			pool = append(pool, root)
		}
		_, ok := g.plantLeaf(reg, root, core.Unused, plantOpts{
			forcedMnt:      mnts[g.rng.Intn(len(mnts))],
			brokerManaged:  true,
			actuallyLeased: &leased,
			inactive:       true,
		})
		if ok {
			planted++
		}
	}
	b.unused -= n
}

// plantLegacyLeases creates broker-managed legacy blocks: actively leased
// but outside the RIR portability definitions, so the core methodology
// never sees them (the paper's 138 legacy false negatives; the
// internal/legacy extension recovers them). Each block keeps the original
// legacy registrant's organisation record — a registered ASN that no
// longer announces the space — alongside the broker maintainer, and an
// equal population of holder-operated legacy blocks (announced by their
// own registrant) provides the non-leased contrast.
func (g *gen) plantLegacyLeases(reg whois.Registry, n int) {
	if n == 0 || len(g.brokerMnt[reg]) == 0 {
		return
	}
	mnts := g.brokerMnts(reg)
	db := g.w.Whois.DB(reg)
	for i := 0; i < n; i++ {
		h := g.newHolder(reg, fmt.Sprintf("Legacy Registrant %d", i))
		p := g.allocBlock(reg, 24)
		db.InetNums = append(db.InetNums, &whois.InetNum{
			Registry:    reg,
			Range:       netutil.RangeOf(p),
			NetName:     fmt.Sprintf("LEGACY-%d", i),
			Status:      "LEGACY",
			Portability: whois.Legacy,
			OrgID:       h.orgID,
			MntBy:       []string{mnts[g.rng.Intn(len(mnts))]},
		})
		origin := g.pickLeaseOriginator()
		g.announce(p, origin)
		g.nonleased = append(g.nonleased, routeInfo{prefix: p, origin: origin})
		g.w.Truth = append(g.w.Truth, TruthRecord{
			Registry:       reg,
			Prefix:         p,
			Intended:       core.Orphan,
			ActuallyLeased: true,
			BrokerManaged:  true,
			Legacy:         true,
		})
	}
	// Holder-operated legacy blocks: the registrant's own AS announces
	// the space, so the legacy extension must not flag them.
	for i := 0; i < n; i++ {
		h := g.newHolder(reg, fmt.Sprintf("Legacy Operator %d", i))
		p := g.allocBlock(reg, 24)
		db.InetNums = append(db.InetNums, &whois.InetNum{
			Registry:    reg,
			Range:       netutil.RangeOf(p),
			NetName:     fmt.Sprintf("LEGACY-OP-%d", i),
			Status:      "LEGACY",
			Portability: whois.Legacy,
			OrgID:       h.orgID,
			MntBy:       []string{h.mnt},
		})
		g.announce(p, h.asn)
		g.nonleased = append(g.nonleased, routeInfo{prefix: p, origin: h.asn})
		g.w.Truth = append(g.w.Truth, TruthRecord{
			Registry: reg,
			Prefix:   p,
			Intended: core.Orphan,
			Legacy:   true,
		})
	}
}

// brokerFacIPXO returns IPXO's maintainer handle (the first RIPE broker
// created).
func (g *gen) brokerFacIPXO() string {
	return g.brokerFac[whois.RIPE].vals[0]
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
