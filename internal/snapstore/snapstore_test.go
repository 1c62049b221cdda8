package snapstore

// Shared test fixture and the serve-identical assertion. The fixture is
// one synthetic world, loaded and inferred once per test binary; every
// codec, store, fetch, and crash test reuses it.

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"ipleasing"
	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/serve"
)

var fixture struct {
	once sync.Once
	snap *serve.Snapshot
	err  error
}

// testSnapshot returns the shared fixture snapshot: a synthetic dataset
// loaded and inferred once, indexed for serving, with BuiltAt, Dir, and
// load reports populated the way a live daemon's snapshot is.
func testSnapshot(t testing.TB) *serve.Snapshot {
	t.Helper()
	fixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "snapstore-fixture-*")
		if err != nil {
			fixture.err = err
			return
		}
		w := ipleasing.Generate(ipleasing.Config{Seed: 21, Scale: 0.004})
		if err := w.WriteDir(dir); err != nil {
			fixture.err = err
			return
		}
		_, sum, res, err := ipleasing.LoadAndInfer(dir, ipleasing.LenientLoad(), ipleasing.Options{})
		if err != nil {
			fixture.err = err
			return
		}
		snap := serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
		snap.BuiltAt = time.Now()
		snap.Dir = dir
		fixture.snap = snap
	})
	if fixture.err != nil {
		t.Fatalf("building fixture snapshot: %v", fixture.err)
	}
	return fixture.snap
}

// assertServesIdentical fails unless got answers every query surface
// byte-identically to want: the pre-rendered Table 1, the JSON view of
// every inference, address lookups at each leaf's first and last
// address, every per-ASN listing (checked against a test-local ASN
// oracle), the load-report views, and the snapshot metadata responses
// embed (BuiltAt, Dir, Strict).
func assertServesIdentical(t *testing.T, label string, got, want *serve.Snapshot) {
	t.Helper()
	if string(got.Table1()) != string(want.Table1()) {
		t.Errorf("%s: Table 1 diverged", label)
	}
	if got.NumInferences() != want.NumInferences() {
		t.Fatalf("%s: inference count %d != %d", label, got.NumInferences(), want.NumInferences())
	}
	if !got.BuiltAt.Equal(want.BuiltAt) {
		t.Errorf("%s: BuiltAt %v != %v", label, got.BuiltAt, want.BuiltAt)
	}
	if got.Dir != want.Dir || got.Strict != want.Strict {
		t.Errorf("%s: metadata (%q, %v) != (%q, %v)", label, got.Dir, got.Strict, want.Dir, want.Strict)
	}

	view := func(s *serve.Snapshot, i int) string {
		b, err := json.Marshal(serve.View(s.Inference(i)))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wantInfs := inferences(want)
	for i := range wantInfs {
		if g, w := view(got, i), view(want, i); g != w {
			t.Fatalf("%s: inference %d view diverged:\n got %s\nwant %s", label, i, g, w)
		}
	}

	// Address lookups: first and last covered address of every leaf must
	// resolve to the same inference view (or the same miss).
	lookup := func(s *serve.Snapshot, a netutil.Addr) string {
		inf := s.LookupAddr(a)
		if inf == nil {
			return "<miss>"
		}
		b, err := json.Marshal(serve.View(inf))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i := range wantInfs {
		p := wantInfs[i].Prefix
		for _, a := range []netutil.Addr{p.First(), p.Last()} {
			if g, w := lookup(got, a), lookup(want, a); g != w {
				t.Fatalf("%s: lookup %v diverged:\n got %s\nwant %s", label, a, g, w)
			}
		}
	}

	// ASN listings, against an oracle that shares no code with the
	// serving index: every leaf origin mapped to the ascending arena
	// indexes that carry it, built here from the arena alone. Both
	// snapshots must list exactly those slots of their own arena (whose
	// views already matched index for index above), and an ASN outside
	// the oracle must list nothing.
	oracle := map[uint32][]int{}
	var maxASN uint32
	for i := range wantInfs {
		for _, asn := range wantInfs[i].LeafOrigins {
			oracle[asn] = append(oracle[asn], i)
			maxASN = max(maxASN, asn)
		}
	}
	for _, s := range []struct {
		name string
		snap *serve.Snapshot
	}{{label, got}, {"original", want}} {
		for asn, idxs := range oracle {
			list := s.snap.LookupASN(asn)
			if len(list) != len(idxs) {
				t.Fatalf("%s: ASN %d lists %d inferences, oracle says %d", s.name, asn, len(list), len(idxs))
			}
			for k, inf := range list {
				if !reflect.DeepEqual(inf, s.snap.Inference(idxs[k])) {
					t.Fatalf("%s: ASN %d listing entry %d is not record %d", s.name, asn, k, idxs[k])
				}
			}
		}
		if _, ok := oracle[maxASN+1]; !ok && len(s.snap.LookupASN(maxASN+1)) != 0 {
			t.Fatalf("%s: ASN %d originates nothing but lists inferences", s.name, maxASN+1)
		}
	}

	// Load accounting views (what /loadreport serves).
	g, err := json.Marshal(got.ReportViews())
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want.ReportViews())
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("%s: load report views diverged:\n got %s\nwant %s", label, g, w)
	}
}

// inferences decodes every record of snap, in record order.
func inferences(snap *serve.Snapshot) []core.Inference {
	out := make([]core.Inference, snap.NumInferences())
	for i := range out {
		snap.InferenceInto(i, &out[i])
	}
	return out
}
