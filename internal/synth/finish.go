package synth

import (
	"fmt"
	"slices"
	"time"

	"ipleasing/internal/hijack"
	"ipleasing/internal/netutil"
	"ipleasing/internal/rpki"
	"ipleasing/internal/spamhaus"
	"ipleasing/internal/whois"
)

// timelineASNs is the Figure-3 cast: the sequence of lessee origin ASNs
// over the studied prefix's two-year history (the paper's y-axis lists
// 834, 8100, 61317, 212384, 211975 and 1239, with AS0 between leases).
var timelineASNs = []uint32{834, 8100, 61317, 212384, 1239}

// timelineSecondROA is the second ASN simultaneously authorised during
// the fourth lease (the figure shows 211975 alongside 212384).
const timelineSecondROA uint32 = 211975

// generateFiller announces the rest of the synthetic Internet: prefixes
// outside the registry bands whose only role is to give the BGP table a
// realistic denominator, with the paper's non-leased abuse mix.
func (g *gen) generateFiller() {
	ab := g.cfg.abuse()
	totalLeased := len(g.leased)
	target := int(float64(totalLeased)/g.cfg.leasedShare()+0.5) - len(g.w.Routes)
	if target < 100 {
		target = 100
	}

	// Eyeball/enterprise ASes announcing the filler.
	nEyeball := target / 80
	if nEyeball < 20 {
		nEyeball = 20
	}
	eyeballs := make([]uint32, 0, nEyeball)
	for i := 0; i < nEyeball; i++ {
		a := g.asn()
		orgID := fmt.Sprintf("ORG-EYE-%d", i)
		g.w.Orgs.AddAS(a, orgID)
		g.w.Orgs.AddOrg(orgID, fmt.Sprintf("Eyeball Network %d", i), g.country())
		g.w.Rel.AddP2C(g.tier1[g.rng.Intn(len(g.tier1))], a)
		eyeballs = append(eyeballs, a)
	}

	// Abuse rates among non-leased prefixes apply to the whole non-leased
	// population; the already-planted registry prefixes are nearly clean,
	// so the filler carries a correspondingly higher rate.
	nonLeasedTotal := float64(len(g.nonleased) + target)
	pHijack := ab.NonLeasedHijackerShare * nonLeasedTotal / float64(target)
	pDrop := ab.NonLeasedDropShare * nonLeasedTotal / float64(target)

	cursor := uint32(fillerFirstOctet) << 24
	var dropAcc, hijAcc float64
	for i := 0; i < target; i++ {
		length := uint8(24)
		switch g.rng.Intn(10) {
		case 0:
			length = 20
		case 1, 2:
			length = 22
		case 3, 4:
			length = 23
		}
		size := uint32(1) << (32 - length)
		if rem := cursor % size; rem != 0 {
			cursor += size - rem
		}
		p := netutil.Prefix{Base: netutil.Addr(cursor), Len: length}
		cursor += size

		origin := eyeballs[g.rng.Intn(len(eyeballs))]
		if dropAcc += pDrop; dropAcc >= 1 && len(g.hostDrop) > 0 {
			dropAcc--
			origin = g.hostDrop[g.rng.Intn(len(g.hostDrop))]
		} else if hijAcc += pHijack; hijAcc >= 1 && len(g.hostHijack) > 0 {
			hijAcc--
			origin = g.hostHijack[g.rng.Intn(len(g.hostHijack))]
		}
		g.announce(p, origin)
		g.nonleased = append(g.nonleased, routeInfo{prefix: p, origin: origin})
	}
}

// generateTimeline builds the Figure-3 lease history for the dedicated
// IPXO prefix: alternating lessee origins with AS0 ROAs between leases.
func (g *gen) generateTimeline() {
	p := g.timelinePrefix
	if p == (netutil.Prefix{}) {
		return
	}
	// Give the timeline ASNs identities and connectivity.
	// In ASN order: each entry draws from the seeded RNG.
	names := []struct {
		asn  uint32
		name string
	}{
		{834, "First Lessee Telecom"},
		{1239, "Sprint Legacy Services"},
		{8100, "QuadraNet Enterprises"},
		{61317, "Hivelocity Inc"},
		{211975, "Fourth Lessee Backup"},
		{212384, "Fourth Lessee Networks"},
	}
	for _, n := range names {
		orgID := fmt.Sprintf("ORG-TL-%d", n.asn)
		g.w.Orgs.AddAS(n.asn, orgID)
		g.w.Orgs.AddOrg(orgID, n.name, g.country())
		g.w.Rel.AddP2C(g.tier1[g.rng.Intn(len(g.tier1))], n.asn)
	}

	tl := &Timeline{Prefix: p}
	start := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	// Lease schedule in months since start: [from, to) per lessee, with
	// one-month AS0 gaps between leases.
	type period struct {
		from, to int
		asn      uint32
		extraROA uint32
	}
	periods := []period{
		{0, 5, timelineASNs[0], 0},
		{6, 11, timelineASNs[1], 0},
		{12, 17, timelineASNs[2], 0},
		{18, 22, timelineASNs[3], timelineSecondROA},
		{23, 25, timelineASNs[4], 0},
	}
	for m := 0; m < 25; m++ {
		pt := TimelinePoint{Time: start.AddDate(0, m, 0)}
		inLease := false
		for _, pd := range periods {
			if m >= pd.from && m < pd.to {
				inLease = true
				pt.Origins = []uint32{pd.asn}
				pt.ROAASNs = []uint32{pd.asn}
				if pd.extraROA != 0 {
					pt.ROAASNs = append(pt.ROAASNs, pd.extraROA)
				}
			}
		}
		if !inLease {
			// Between leases IPXO parks the prefix behind an AS0 ROA
			// (§6.5) and withdraws it from BGP.
			pt.ROAASNs = []uint32{0}
		}
		tl.Points = append(tl.Points, pt)
	}
	g.w.Timeline = tl
}

// generateAbuseLists builds the Spamhaus ASN-DROP monthly archive and the
// serial-hijacker list.
func (g *gen) generateAbuseLists() {
	s := g.cfg.scale()
	ab := g.cfg.abuse()

	// Serial hijackers: the active hijacker originators plus dormant
	// entries to reach the scaled list size.
	hj := append([]uint32(nil), g.hostHijack...)
	for len(hj) < scaleCount(ab.Hijackers, s) {
		hj = append(hj, g.asn())
	}
	g.w.Hijackers = hijack.New(hj)

	// ASN-DROP: all DROP-listed originators plus churny extras, four
	// monthly snapshots (February through May 2024).
	base := append([]uint32(nil), g.hostDrop...)
	for len(base) < scaleCount(ab.DropASNs, s) {
		base = append(base, g.asn())
	}
	arch := &spamhaus.Archive{}
	months := []time.Month{time.February, time.March, time.April, time.May}
	for mi, m := range months {
		entries := make([]spamhaus.Entry, 0, len(base)+2)
		for _, a := range base {
			entries = append(entries, spamhaus.Entry{
				ASN: a, RIR: "ripencc", CC: g.countries[int(a)%len(g.countries)],
				ASName: fmt.Sprintf("DROPPED-%d", a),
			})
		}
		// Month-over-month churn: each month one fresh entry appears.
		for extra := 0; extra <= mi; extra++ {
			entries = append(entries, spamhaus.Entry{
				ASN: 4000000 + uint32(extra), RIR: "arin", ASName: fmt.Sprintf("CHURN-%d", extra),
			})
		}
		arch.Add(2024, m, spamhaus.NewList(entries))
	}
	g.w.Drop = arch
	g.dropListed = make(map[uint32]bool, len(base))
	for _, a := range base {
		g.dropListed[a] = true
	}
}

// generateRPKI builds the April VRP snapshots: coverage and blocklisted-
// ASN shares per the paper's §6.4, plus the timeline prefix's current ROA.
func (g *gen) generateRPKI() {
	ab := g.cfg.abuse()
	taFor := func(p netutil.Prefix) string {
		oct := uint32(p.Base) >> 24
		for reg, first := range registryFirstOctet {
			if oct >= first && oct < first+16 {
				switch reg {
				case whois.RIPE:
					return "ripe"
				case whois.ARIN:
					return "arin"
				case whois.APNIC:
					return "apnic"
				case whois.AFRINIC:
					return "afrinic"
				case whois.LACNIC:
					return "lacnic"
				}
			}
		}
		return "ripe"
	}
	dropASNs := make([]uint32, 0, len(g.dropListed))
	for a := range g.dropListed {
		dropASNs = append(dropASNs, a)
	}
	slices.Sort(dropASNs)

	var vrps []rpki.VRP
	emit := func(ri routeInfo, coverShare, extraBadShare float64) {
		if g.rng.Float64() >= coverShare {
			return
		}
		asn := ri.origin
		// Blocklisted origins already produce blocklisted ROAs; the
		// extra share covers holders who signed ROAs for abusive
		// lessees that never (or no longer) announce.
		if !g.dropListed[asn] && g.rng.Float64() < extraBadShare && len(dropASNs) > 0 {
			asn = dropASNs[g.rng.Intn(len(dropASNs))]
		}
		vrps = append(vrps, rpki.VRP{
			ASN: asn, Prefix: ri.prefix, MaxLen: ri.prefix.Len, TA: taFor(ri.prefix),
		})
	}
	leasedExtra := ab.LeasedROABadShare - ab.LeasedDropShare
	if leasedExtra < 0 {
		leasedExtra = 0
	}
	nonLeasedExtra := ab.NonLeasedROABadShare - ab.NonLeasedDropShare
	if nonLeasedExtra < 0 {
		nonLeasedExtra = 0
	}
	for _, ri := range g.leased {
		emit(ri, ab.LeasedROAShare, leasedExtra)
	}
	for _, ri := range g.nonleased {
		emit(ri, ab.NonLeasedROAShare, nonLeasedExtra)
	}

	// The archive window carries churn, like the paper's two weeks of
	// 30-minute snapshots: some ROAs only appear later in the window
	// (leases whose holders signed late — the reason the paper uses a
	// window at all), and a few early ROAs are withdrawn mid-window
	// (ended leases). The abuse analysis consumes the window's union.
	late := len(vrps) / 20  // ~5% appear only from the second snapshot on
	early := len(vrps) / 40 // ~2.5% disappear after the second snapshot
	if late+early > len(vrps) {
		late, early = 0, 0
	}
	stable := vrps[:len(vrps)-late-early]
	lateVRPs := vrps[len(vrps)-late-early : len(vrps)-early]
	earlyVRPs := vrps[len(vrps)-early:]

	snapshotVRPs := func(withLate, withEarly bool) []rpki.VRP {
		out := append([]rpki.VRP(nil), stable...)
		if withLate {
			out = append(out, lateVRPs...)
		}
		if withEarly {
			out = append(out, earlyVRPs...)
		}
		return out
	}
	arch := &rpki.Archive{}
	arch.Add(rpki.Snapshot{Time: g.w.SnapshotTime, VRPs: snapshotVRPs(false, true)})
	arch.Add(rpki.Snapshot{Time: g.w.SnapshotTime.Add(30 * time.Minute), VRPs: snapshotVRPs(true, true)})
	arch.Add(rpki.Snapshot{Time: g.w.SnapshotTime.AddDate(0, 0, 7), VRPs: snapshotVRPs(true, false)})
	arch.Add(rpki.Snapshot{Time: g.w.SnapshotTime.AddDate(0, 0, 14), VRPs: snapshotVRPs(true, false)})
	g.w.RPKI = arch
	g.w.EvalISPs = g.cfg.evalISPs()
}
