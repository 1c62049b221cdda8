package refclassify

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ipleasing"
	"ipleasing/internal/as2org"
	"ipleasing/internal/asrel"
	"ipleasing/internal/bgp"
	"ipleasing/internal/core"
	"ipleasing/internal/faultgen"
	"ipleasing/internal/whois"
)

// ablations are the option settings every differential run covers, in
// the order they run on one dataset: the tree cache is keyed by the
// hyper-specific cut-off, so a wrongly keyed cache would hand a later
// run the wrong tree.
var ablations = []core.Options{
	{},
	{MaxPrefixLen: 32},
	{RootLookupExactOnly: true},
	{DisableSiblingExpansion: true},
	{MinVisibility: 2},
}

// fromSubstrates turns the loaded substrates into the reference's
// input. The RIB comes from the table's walk and per-prefix visibility;
// relationships and org membership come from the records the graph and
// map write out, not from their queries.
func fromSubstrates(t testing.TB, w *whois.Dataset, tbl *bgp.Table, g *asrel.Graph, m *as2org.Map) input {
	t.Helper()
	in := input{edges: make(map[[2]uint32]bool), orgOf: make(map[uint32]string)}
	for _, reg := range whois.Registries {
		if db, ok := w.DBs[reg]; ok {
			in.dbs = append(in.dbs, db)
		}
	}
	if tbl != nil {
		tbl.Walk(func(p ipleasing.Prefix, origins []uint32) bool {
			in.rib = append(in.rib, ribEntry{pfx: p, origins: append([]uint32(nil), origins...), vis: tbl.Visibility(p)})
			return true
		})
	}
	if g != nil {
		var buf bytes.Buffer
		if err := asrel.Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		for _, f := range records(buf.Bytes()) {
			a, b := asn(t, f[0]), asn(t, f[1])
			in.edges[[2]uint32{a, b}] = true
			in.edges[[2]uint32{b, a}] = true
		}
	}
	if m != nil {
		var buf bytes.Buffer
		if err := as2org.Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		for _, f := range records(buf.Bytes()) {
			// AS lines start with a number; org lines with an org id.
			if n, err := strconv.ParseUint(f[0], 10, 32); err == nil && len(f) >= 4 {
				in.orgOf[uint32(n)] = f[3]
			}
		}
	}
	return in
}

// records splits pipe-format text into the fields of each non-comment
// line.
func records(data []byte) [][]string {
	var out [][]string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		out = append(out, strings.Split(line, "|"))
	}
	return out
}

func asn(t testing.TB, s string) uint32 {
	t.Helper()
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		t.Fatalf("relationship record field %q: %v", s, err)
	}
	return uint32(n)
}

// leafKey identifies one classified leaf.
type leafKey struct {
	reg whois.Registry
	pfx ipleasing.Prefix
}

// fromInference is core's inference in the compared form.
func fromInference(inf *core.Inference) leaf {
	return leaf{
		reg: inf.Registry, pfx: inf.Prefix, cat: inf.Category,
		root: inf.Root, holder: inf.HolderOrg,
		rootASNs:    set(inf.RootASNs),
		rootOrigins: set(inf.RootOrigins),
		leafOrigins: set(inf.LeafOrigins),
	}
}

func (l leaf) String() string {
	return fmt.Sprintf("%v %v %v root=%v holder=%q asns=%v rootOrigins=%v leafOrigins=%v",
		l.reg, l.pfx, l.cat, l.root, l.holder, l.rootASNs, l.rootOrigins, l.leafOrigins)
}

func equalSets(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameLeaf(a, b leaf) bool {
	return a.reg == b.reg && a.pfx == b.pfx && a.cat == b.cat && a.root == b.root &&
		a.holder == b.holder && equalSets(a.rootASNs, b.rootASNs) &&
		equalSets(a.rootOrigins, b.rootOrigins) && equalSets(a.leafOrigins, b.leafOrigins)
}

// maxDiffs caps the disagreements one comparison reports.
const maxDiffs = 10

// diff lists how core's result departs from the reference's leaves:
// leaves only one side classified and leaves classified differently.
func diff(res *core.Result, want []leaf) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < maxDiffs {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	got := make(map[leafKey]leaf)
	for _, inf := range res.All() {
		l := fromInference(&inf)
		k := leafKey{l.reg, l.pfx}
		if _, dup := got[k]; dup {
			add("core classified %v %v twice", l.reg, l.pfx)
		}
		got[k] = l
	}
	for _, w := range want {
		k := leafKey{w.reg, w.pfx}
		g, ok := got[k]
		switch {
		case !ok:
			add("only the reference classified %v", w)
		case !sameLeaf(g, w):
			add("core      %v\n\treference %v", g, w)
		}
		delete(got, k)
	}
	for _, g := range got {
		add("only core classified %v", g)
	}
	return out
}

// loadWorld writes a generated world, optionally damages it with
// faultgen, and loads it back (strictly when clean, leniently when
// damaged).
func loadWorld(t *testing.T, seed int64, scale float64, damaged bool) *ipleasing.Dataset {
	t.Helper()
	dir := t.TempDir()
	if err := ipleasing.Generate(ipleasing.Config{Seed: seed, Scale: scale}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if !damaged {
		ds, err := ipleasing.LoadDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	if _, err := faultgen.Corrupt(dir, seed); err != nil {
		t.Fatal(err)
	}
	ds, _, err := ipleasing.LoadDatasetReport(dir, ipleasing.LenientLoad())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetInput(t *testing.T, ds *ipleasing.Dataset) input {
	return fromSubstrates(t, ds.Whois, ds.Table, ds.Rel, ds.Orgs)
}

// TestDifferentialReference is the oracle for internal/core: over
// seeds, scales, clean and faultgen-damaged (leniently loaded) worlds,
// and every ablation run in sequence on one Dataset, every leaf's
// registry, prefix, category, root, holder org, root ASNs and root and
// leaf origin sets must equal the reference's.
func TestDifferentialReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, scale := range []float64{0.005, 0.01, 0.02} {
			for _, damaged := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/scale%v/damaged=%v", seed, scale, damaged)
				t.Run(name, func(t *testing.T) {
					ds := loadWorld(t, seed, scale, damaged)
					in := datasetInput(t, ds)
					for _, opts := range ablations {
						if d := diff(ds.Infer(opts), classify(in, opts)); len(d) > 0 {
							t.Errorf("options %+v: core and reference disagree:\n\t%s", opts, strings.Join(d, "\n\t"))
						}
					}
				})
			}
		}
	}
}

// csvBytes renders a result through the stable CSV export, in result
// order.
func csvBytes(t *testing.T, res *core.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, res.All()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestInferCacheEquivalence: two runs over one Dataset, the second
// served from its tree cache and frozen table, are byte-identical and
// both equal the reference. An in-memory pipeline, with no tree cache
// and a table that is unfrozen until Infer, equals the reference too.
func TestInferCacheEquivalence(t *testing.T) {
	ds := loadWorld(t, 5, 0.01, false)
	want := classify(datasetInput(t, ds), core.Options{})
	first, second := ds.Infer(core.Options{}), ds.Infer(core.Options{})
	if csvBytes(t, first) != csvBytes(t, second) {
		t.Fatal("two Infer runs over one Dataset differ")
	}
	for i, res := range []*core.Result{first, second} {
		if d := diff(res, want); len(d) > 0 {
			t.Fatalf("run %d and the reference disagree:\n\t%s", i+1, strings.Join(d, "\n\t"))
		}
	}

	w := ipleasing.Generate(ipleasing.Config{Seed: 5, Scale: 0.01})
	in := fromSubstrates(t, w.Whois, w.Table(), w.Rel, w.Orgs)
	if d := diff(w.Pipeline().Infer(), classify(in, core.Options{})); len(d) > 0 {
		t.Fatalf("in-memory pipeline and the reference disagree:\n\t%s", strings.Join(d, "\n\t"))
	}
}

// TestAblationCacheEquivalence: every ablation combination, run in
// sequence on one Dataset so its tree cache is shared, equals the
// reference; and the ablations still change the result.
func TestAblationCacheEquivalence(t *testing.T) {
	ds := loadWorld(t, 7, 0.01, false)
	in := datasetInput(t, ds)
	for _, maxLen := range []uint8{0, 32} {
		for _, exact := range []bool{false, true} {
			for _, noSib := range []bool{false, true} {
				for _, minVis := range []int{0, 2} {
					opts := core.Options{
						MaxPrefixLen:            maxLen,
						RootLookupExactOnly:     exact,
						DisableSiblingExpansion: noSib,
						MinVisibility:           minVis,
					}
					if d := diff(ds.Infer(opts), classify(in, opts)); len(d) > 0 {
						t.Fatalf("options %+v: core and the reference disagree:\n\t%s", opts, strings.Join(d, "\n\t"))
					}
				}
			}
		}
	}

	// The ablations must still differentiate their variants: exact-only
	// root lookup and disabled sibling expansion each shift categories.
	base := ds.Infer(core.Options{})
	if ex := ds.Infer(core.Options{RootLookupExactOnly: true}); csvBytes(t, ex) == csvBytes(t, base) {
		t.Error("RootLookupExactOnly ablation changed nothing")
	}
	if ns := ds.Infer(core.Options{DisableSiblingExpansion: true}); ns.TotalLeased() <= base.TotalLeased() {
		t.Error("DisableSiblingExpansion did not add false leases")
	}
}
