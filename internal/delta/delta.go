// Package delta diffs two loaded dataset generations and produces the
// changed-key set that drives incremental re-inference (the O(churn)
// reload path). Each substrate is compared with the cheapest sound
// equality notion for how the inference core consumes it:
//
//   - WHOIS InetNums compare as whole objects; a changed object's address
//     range is the dirtiness trigger, since classification only reads
//     blocks through the per-registry allocation tree.
//   - WHOIS AutNums and Orgs fold into a per-registry changed-org set:
//     the core reaches them exclusively via ASNsOfOrg(root.OrgID).
//   - BGP prefixes compare as origin→vantage-point-count multisets
//     (bgp.DiffPrefixes); counts drive sorted order and visibility, so a
//     count-only change is a behavioural change.
//   - asrel and as2org fold into one changed-ASN set (asrel.DiffGraphs,
//     as2org.DiffMaps): relatedness of a pair can only change if an
//     endpoint changed.
//   - RPKI ROAs are counted for telemetry only (a sorted multiset
//     merge, not rpki.DiffSnapshots' materialised lists); the core
//     classification never reads them, and neither does geoip.
//
// The package is a pure function over the substrates: it never mutates
// its inputs and holds no state between calls.
package delta

import (
	"slices"
	"strings"

	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/bgp"
	"ipleasing/internal/netutil"
	"ipleasing/internal/par"
	"ipleasing/internal/rpki"
	"ipleasing/internal/whois"
)

// Inputs bundles one generation's substrates. Nil fields compare as
// empty.
type Inputs struct {
	Whois *whois.Dataset
	Table *bgp.Table
	Rel   *asrel.Graph
	Orgs  *as2org.Map
	RPKI  *rpki.Archive
}

// RegistryChanges is one registry's WHOIS-level churn.
type RegistryChanges struct {
	// Ranges lists the address ranges of every InetNum object that was
	// added, removed, or modified, sorted by first address. A non-empty
	// list means the registry's allocation tree must be rebuilt.
	Ranges []netutil.Range
	// Orgs holds the organisation handles whose Org object or AutNum
	// membership changed; any root held by one of them is dirty.
	Orgs map[string]bool
}

// Empty reports whether the registry saw no relevant churn.
func (rc *RegistryChanges) Empty() bool {
	return rc == nil || (len(rc.Ranges) == 0 && len(rc.Orgs) == 0)
}

// Changes is the full changed-key set between two generations.
type Changes struct {
	// Whois maps each registry with churn to its changes; registries
	// absent from the map are byte-identical.
	Whois map[whois.Registry]*RegistryChanges
	// BGP lists every prefix whose origin multiset changed, in canonical
	// order.
	BGP []netutil.Prefix
	// RelASNs is the union of asrel edge-endpoint and as2org assignment
	// changes: the ASNs for which Related or Siblings may answer
	// differently.
	RelASNs map[uint32]bool
	// RPKIAdded and RPKIRemoved count ROA churn between the latest
	// snapshots of the two archives (telemetry only).
	RPKIAdded, RPKIRemoved int
}

// Empty reports whether the two generations are equivalent for
// inference purposes (RPKI churn is ignored: it never affects the core
// classification).
func (c *Changes) Empty() bool {
	for _, rc := range c.Whois {
		if !rc.Empty() {
			return false
		}
	}
	return len(c.BGP) == 0 && len(c.RelASNs) == 0
}

// ChangedKeys returns per-source changed-key counts, keyed by load
// source names ("whois/ripe", "bgp", ...).
func (c *Changes) ChangedKeys() map[string]int {
	out := make(map[string]int)
	for reg, rc := range c.Whois {
		if n := len(rc.Ranges) + len(rc.Orgs); n > 0 {
			out["whois/"+strings.ToLower(reg.String())] = n
		}
	}
	if len(c.BGP) > 0 {
		out["bgp"] = len(c.BGP)
	}
	if len(c.RelASNs) > 0 {
		out["asrel"] = len(c.RelASNs)
	}
	if n := c.RPKIAdded + c.RPKIRemoved; n > 0 {
		out["rpki"] = n
	}
	return out
}

// TotalChangedKeys sums ChangedKeys across sources.
func (c *Changes) TotalChangedKeys() int {
	n := 0
	for _, v := range c.ChangedKeys() {
		n += v
	}
	return n
}

// Diff computes the changed-key set from the prev generation to next.
// The per-source sub-diffs are independent pure functions over disjoint
// substrates, so they run concurrently: the diff sits on the serving
// reload path, where its wall-clock cost bounds how stale a snapshot
// gets during an incremental refresh.
func Diff(prev, next Inputs) *Changes {
	c := &Changes{Whois: make(map[whois.Registry]*RegistryChanges)}
	var orgASNs map[uint32]bool
	regChanges := make([]*RegistryChanges, len(whois.Registries))
	tasks := []func() error{
		func() error { c.RelASNs = asrel.DiffGraphs(prev.Rel, next.Rel); return nil },
		func() error { orgASNs = as2org.DiffMaps(prev.Orgs, next.Orgs); return nil },
		func() error { c.BGP = bgp.DiffPrefixes(prev.Table, next.Table); return nil },
		func() error { c.RPKIAdded, c.RPKIRemoved = diffRPKI(prev.RPKI, next.RPKI); return nil },
	}
	for i, reg := range whois.Registries {
		i, reg := i, reg
		tasks = append(tasks, func() error {
			regChanges[i] = diffRegistry(dbOf(prev.Whois, reg), dbOf(next.Whois, reg))
			return nil
		})
	}
	if err := par.Do(tasks...); err != nil {
		panic(err) // only a recovered sub-diff panic: re-raise it
	}
	for asn := range orgASNs {
		c.RelASNs[asn] = true
	}
	for i, reg := range whois.Registries {
		if rc := regChanges[i]; !rc.Empty() {
			c.Whois[reg] = rc
		}
	}
	return c
}

func dbOf(ds *whois.Dataset, reg whois.Registry) *whois.Database {
	if ds == nil {
		return nil
	}
	return ds.DBs[reg]
}

func diffRPKI(prev, next *rpki.Archive) (added, removed int) {
	var ps, ns *rpki.Snapshot
	if prev != nil {
		ps = prev.Latest()
	}
	if next != nil {
		ns = next.Latest()
	}
	switch {
	case ps == nil && ns == nil:
		return 0, 0
	case ps == nil:
		return len(ns.VRPs), 0
	case ns == nil:
		return 0, len(ps.VRPs)
	}
	// Only the churn counts are needed (telemetry), not the ROA lists
	// rpki.DiffSnapshots materializes. A VRP's full value is its identity,
	// so the multiset difference is a plain merge over totally-ordered
	// index views — two int32 slices instead of a count map keyed by the
	// whole struct (which would hash every TA string on both sides).
	pi := vrpIndex(ps.VRPs)
	ni := vrpIndex(ns.VRPs)
	i, j := 0, 0
	for i < len(pi) || j < len(ni) {
		switch {
		case j >= len(ni):
			removed++
			i++
		case i >= len(pi):
			added++
			j++
		default:
			switch c := compareVRPs(ps.VRPs[pi[i]], ns.VRPs[ni[j]]); {
			case c < 0:
				removed++
				i++
			case c > 0:
				added++
				j++
			default:
				i++
				j++
			}
		}
	}
	return added, removed
}

// vrpIndex returns the indices of vs in compareVRPs order.
func vrpIndex(vs []rpki.VRP) []int32 {
	idx := make([]int32, len(vs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int { return compareVRPs(vs[i], vs[j]) })
	return idx
}

// compareVRPs is a total order over VRP values. The prefix leads
// because VRP dumps arrive (nearly) prefix-sorted, which keeps the sort
// close to linear; the TA string is compared last, as it only breaks
// ties between VRPs identical in every numeric field, which real
// snapshots rarely contain.
func compareVRPs(a, b rpki.VRP) int {
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c
	}
	if a.ASN != b.ASN {
		if a.ASN < b.ASN {
			return -1
		}
		return 1
	}
	if a.MaxLen != b.MaxLen {
		if a.MaxLen < b.MaxLen {
			return -1
		}
		return 1
	}
	return strings.Compare(a.TA, b.TA)
}

// diffRegistry compares one registry's WHOIS objects as multisets of
// full objects. Multisets, not sets: duplicate objects exist in real
// dumps, and a copy appearing or disappearing is a change.
//
// Each object class is compared by a merge co-scan over the two
// generations' objects ordered by their natural identity (InetNums by
// range, AutNums by number, Orgs by handle) — O(n log n) integer/string
// sorts of index slices, then pairwise full-object equality only within
// runs sharing an identity. No per-object hashing, no count maps: the
// reload path's diff cost is two small index allocations per class.
func diffRegistry(prev, next *whois.Database) *RegistryChanges {
	rc := &RegistryChanges{Orgs: make(map[string]bool)}
	var pInets, nInets []*whois.InetNum
	var pAuts, nAuts []*whois.AutNum
	var pOrgs, nOrgs []*whois.Org
	if prev != nil {
		pInets, pAuts, pOrgs = prev.InetNums, prev.AutNums, prev.Orgs
	}
	if next != nil {
		nInets, nAuts, nOrgs = next.InetNums, next.AutNums, next.Orgs
	}

	coScan(pInets, nInets,
		func(a, b *whois.InetNum) int { return compareRanges(a.Range, b.Range) },
		inetEqual,
		func(n *whois.InetNum) { rc.Ranges = append(rc.Ranges, n.Range) })
	coScan(pAuts, nAuts,
		func(a, b *whois.AutNum) int { return compareUint32(a.Number, b.Number) },
		autEqual,
		func(a *whois.AutNum) {
			if a.OrgID != "" {
				rc.Orgs[a.OrgID] = true
			}
		})
	coScan(pOrgs, nOrgs,
		func(a, b *whois.Org) int { return strings.Compare(a.ID, b.ID) },
		orgEqual,
		func(o *whois.Org) { rc.Orgs[o.ID] = true })

	slices.SortFunc(rc.Ranges, compareRanges)
	// A modified object contributes its range from both sides of the
	// diff (old version and new version); collapse the duplicates.
	dedup := rc.Ranges[:0]
	for _, r := range rc.Ranges {
		if len(dedup) == 0 || dedup[len(dedup)-1] != r {
			dedup = append(dedup, r)
		}
	}
	rc.Ranges = dedup
	return rc
}

func compareRanges(a, b netutil.Range) int {
	switch {
	case a.First != b.First:
		if a.First < b.First {
			return -1
		}
		return 1
	case a.Last != b.Last:
		if a.Last < b.Last {
			return -1
		}
		return 1
	}
	return 0
}

func compareUint32(a, b uint32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func inetEqual(a, b *whois.InetNum) bool {
	return a.Range == b.Range && a.NetName == b.NetName && a.Status == b.Status &&
		a.Portability == b.Portability && a.OrgID == b.OrgID && a.Country == b.Country &&
		slices.Equal(a.MntBy, b.MntBy)
}

func autEqual(a, b *whois.AutNum) bool {
	return a.Number == b.Number && a.Name == b.Name && a.OrgID == b.OrgID
}

func orgEqual(a, b *whois.Org) bool {
	return a.ID == b.ID && a.Name == b.Name && a.Country == b.Country &&
		slices.Equal(a.MntRef, b.MntRef)
}

// coScan reports the multiset difference of two object slices: it sorts
// index views of both sides by the identity order cmp, merges them, and
// calls onChanged once for every object that has no equal partner on
// the other side. Objects sharing an identity (duplicate ranges,
// re-used handles) form runs that are matched pairwise; runs are tiny,
// so the quadratic matching never matters.
func coScan[T any](prev, next []*T, cmp func(a, b *T) int, eq func(a, b *T) bool, onChanged func(*T)) {
	pi := sortedIndex(prev, cmp)
	ni := sortedIndex(next, cmp)
	i, j := 0, 0
	for i < len(pi) || j < len(ni) {
		switch {
		case j >= len(ni):
			onChanged(prev[pi[i]])
			i++
		case i >= len(pi):
			onChanged(next[ni[j]])
			j++
		default:
			a, b := prev[pi[i]], next[ni[j]]
			switch c := cmp(a, b); {
			case c < 0:
				onChanged(a)
				i++
			case c > 0:
				onChanged(b)
				j++
			default:
				i1, j1 := i+1, j+1
				for i1 < len(pi) && cmp(prev[pi[i1]], a) == 0 {
					i1++
				}
				for j1 < len(ni) && cmp(next[ni[j1]], a) == 0 {
					j1++
				}
				if i1 == i+1 && j1 == j+1 {
					// The overwhelmingly common case: one object per
					// side with this identity.
					if !eq(a, b) {
						onChanged(a)
						onChanged(b)
					}
				} else {
					diffRun(prev, pi[i:i1], next, ni[j:j1], eq, onChanged)
				}
				i, j = i1, j1
			}
		}
	}
}

// diffRun multiset-matches two identity-sharing runs and reports the
// unmatched objects from both sides.
func diffRun[T any](prev []*T, pi []int32, next []*T, ni []int32, eq func(a, b *T) bool, onChanged func(*T)) {
	used := make([]bool, len(ni))
outer:
	for _, ip := range pi {
		for k, in := range ni {
			if !used[k] && eq(prev[ip], next[in]) {
				used[k] = true
				continue outer
			}
		}
		onChanged(prev[ip])
	}
	for k, in := range ni {
		if !used[k] {
			onChanged(next[in])
		}
	}
}

// sortedIndex returns the indices of objs ordered by cmp. Registry
// dumps arrive nearly sorted already, which the pattern-defeating sort
// exploits; the index slice is the only allocation.
func sortedIndex[T any](objs []*T, cmp func(a, b *T) int) []int32 {
	idx := make([]int32, len(objs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int { return cmp(objs[i], objs[j]) })
	return idx
}
