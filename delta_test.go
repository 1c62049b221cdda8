package ipleasing

// Equivalence contract of the incremental delta path: for any churn
// level, the result InferDelta splices together must be byte-identical
// to a full inference over the successor dataset — same unsorted CSV,
// same Table 1, same served lookup answers — at any GOMAXPROCS. The
// matrix sweeps churn from nothing (everything aliased) through
// realistic monthly levels to 100% (the churn threshold forces a full
// fallback), across seeds and parallelism.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ipleasing/internal/faultgen"
	"ipleasing/internal/netutil"
	"ipleasing/internal/serve"
)

// writeEpochPair generates one world, writes it as the base epoch,
// mutates it in place at the given churn, and writes the successor
// epoch, returning the two dataset directories one reload apart.
func writeEpochPair(t *testing.T, seed int64, churn float64) (baseDir, nextDir string) {
	t.Helper()
	w := Generate(Config{Seed: seed, Scale: 0.004})
	baseDir = t.TempDir()
	if err := w.WriteDir(baseDir); err != nil {
		t.Fatal(err)
	}
	Mutate(w, MutateConfig{Seed: seed + 100, Churn: churn})
	nextDir = t.TempDir()
	if err := w.WriteDir(nextDir); err != nil {
		t.Fatal(err)
	}
	return baseDir, nextDir
}

// snapshotProbe compares two snapshots over every query surface a
// byte-equivalence claim covers: the rendered Table 1, address lookups
// across the leaves (first, last, and one-past-the-end of every
// classified prefix), and the per-ASN listings of every origin.
func snapshotProbe(t *testing.T, label string, got, want *serve.Snapshot) {
	t.Helper()
	if string(got.Table1()) != string(want.Table1()) {
		t.Errorf("%s: Table 1 diverged", label)
	}
	if got.NumInferences() != want.NumInferences() {
		t.Fatalf("%s: inference count %d != %d", label, got.NumInferences(), want.NumInferences())
	}
	render := func(inf *Inference) string {
		if inf == nil {
			return "<miss>"
		}
		return fmt.Sprintf("%v|%v|%v|%v", inf.Prefix, inf.Category, inf.Root, inf.HolderOrg)
	}
	asns := map[uint32]bool{}
	for _, inf := range want.Result.All() {
		for _, a := range []netutil.Addr{
			inf.Prefix.First(),
			inf.Prefix.Last(),
			inf.Prefix.Last() + 1,
		} {
			if g, w := render(got.LookupAddr(a)), render(want.LookupAddr(a)); g != w {
				t.Fatalf("%s: LookupAddr(%v) = %s, want %s", label, a, g, w)
			}
		}
		if g, w := render(got.LookupPrefix(inf.Prefix)), render(want.LookupPrefix(inf.Prefix)); g != w {
			t.Fatalf("%s: LookupPrefix(%v) = %s, want %s", label, inf.Prefix, g, w)
		}
		for _, asn := range inf.LeafOrigins {
			asns[asn] = true
		}
	}
	for asn := range asns {
		g, w := got.LookupASN(asn), want.LookupASN(asn)
		if len(g) != len(w) {
			t.Fatalf("%s: LookupASN(%d) returned %d entries, want %d", label, asn, len(g), len(w))
		}
		for i := range g {
			if render(g[i]) != render(w[i]) {
				t.Fatalf("%s: LookupASN(%d)[%d] = %s, want %s", label, asn, i, render(g[i]), render(w[i]))
			}
		}
	}
}

// checkASNOracle checks every LookupASN answer of snap against an index
// built here from the arena alone — each leaf origin mapped to the
// ascending arena indexes that carry it — so it shares no code with the
// snapshot's own ASN index. An ASN outside the oracle must list
// nothing.
func checkASNOracle(t *testing.T, label string, snap *serve.Snapshot) {
	t.Helper()
	infs := snap.FlatInferences()
	oracle := map[uint32][]int{}
	var maxASN uint32
	for i := range infs {
		for _, asn := range infs[i].LeafOrigins {
			oracle[asn] = append(oracle[asn], i)
			maxASN = max(maxASN, asn)
		}
	}
	for asn, idxs := range oracle {
		list := snap.LookupASN(asn)
		if len(list) != len(idxs) {
			t.Fatalf("%s: ASN %d lists %d inferences, oracle says %d", label, asn, len(list), len(idxs))
		}
		for k, inf := range list {
			if inf != &infs[idxs[k]] {
				t.Fatalf("%s: ASN %d listing entry %d is not arena slot %d", label, asn, k, idxs[k])
			}
		}
	}
	if _, ok := oracle[maxASN+1]; !ok && len(snap.LookupASN(maxASN+1)) != 0 {
		t.Fatalf("%s: ASN %d originates nothing but lists inferences", label, maxASN+1)
	}
}

func TestDeltaEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	opts := Options{}
	for _, churn := range []float64{0, 0.01, 0.10, 1.0} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("churn=%g/seed=%d", churn, seed), func(t *testing.T) {
				baseDir, nextDir := writeEpochPair(t, seed, churn)
				prevDS, err := LoadDataset(baseDir)
				if err != nil {
					t.Fatal(err)
				}
				prevGen := &Generation{Dataset: prevDS, Result: prevDS.Infer(opts), Opts: opts}
				prevSnap := serve.NewSnapshot(prevGen.Result, nil, nil)

				// Reference: an independent full inference over the
				// successor epoch.
				refDS, err := LoadDataset(nextDir)
				if err != nil {
					t.Fatal(err)
				}
				want := rawResultBytes(t, refDS.Infer(opts))
				wantSnap := serve.NewSnapshot(refDS.Infer(opts), nil, nil)
				checkASNOracle(t, "full build", wantSnap)

				// The 10% leg disables the churn threshold so the
				// splice path is exercised under heavy dirtiness (with
				// the default threshold it would fall back to full and
				// test nothing new); the 100% leg keeps it to prove the
				// fallback itself.
				threshold := DeltaChurnFallback
				if churn == 0.10 {
					threshold = 0
				}
				for _, procs := range []int{1, runtime.NumCPU()} {
					runtime.GOMAXPROCS(procs)
					label := fmt.Sprintf("procs=%d", procs)
					nextDS, err := LoadDataset(nextDir)
					if err != nil {
						t.Fatal(err)
					}
					gen, rep := InferDelta(ctx, nextDS, nil, opts, prevGen, threshold)
					if got := rawResultBytes(t, gen.Result); got != want {
						t.Fatalf("%s: delta result diverged from full inference", label)
					}
					switch churn {
					case 0:
						if rep.Mode != "delta" {
							t.Errorf("%s: zero churn ran mode %q, want delta", label, rep.Mode)
						}
						if rep.Stats == nil || rep.Stats.DirtySegments != 0 {
							t.Errorf("%s: zero churn produced dirty segments: %+v", label, rep.Stats)
						}
					case 0.01, 0.10:
						if rep.Mode != "delta" {
							t.Errorf("%s: churn %g ran mode %q, want delta", label, churn, rep.Mode)
						}
					case 1.0:
						if rep.Mode != "full" {
							t.Errorf("%s: full churn ran mode %q, want threshold fallback to full", label, rep.Mode)
						}
					}
					// Serving-index equivalence: patching the previous
					// snapshot must answer like a fresh index build.
					var snap *serve.Snapshot
					if rep.Mode == "delta" {
						snap = serve.PatchSnapshot(prevSnap, gen.Result, rep.Plan, nil, nil)
					} else {
						snap = serve.NewSnapshot(gen.Result, nil, nil)
					}
					snapshotProbe(t, label, snap, wantSnap)
					checkASNOracle(t, label+" "+rep.Mode, snap)
				}
			})
		}
	}
}

// TestDeltaZeroChurnAliases pins the structural-sharing contract: with
// no churn at all, every region of the delta result must be the
// previous generation's RegionResult pointer, and the patch plan must
// be a clean identity.
func TestDeltaZeroChurnAliases(t *testing.T) {
	baseDir, nextDir := writeEpochPair(t, 7, 0)
	prevDS, err := LoadDataset(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	prevGen := &Generation{Dataset: prevDS, Result: prevDS.Infer(Options{}), Opts: Options{}}
	nextDS, err := LoadDataset(nextDir)
	if err != nil {
		t.Fatal(err)
	}
	gen, rep := InferDelta(context.Background(), nextDS, nil, Options{}, prevGen, DeltaChurnFallback)
	if rep.Mode != "delta" {
		t.Fatalf("mode %q, want delta", rep.Mode)
	}
	if rep.Changes == nil || !rep.Changes.Empty() {
		t.Fatalf("zero-churn diff not empty: %+v", rep.Changes.ChangedKeys())
	}
	if rep.Stats.AliasedRegions == 0 || rep.Stats.DirtySegments != 0 {
		t.Fatalf("expected full aliasing, got %+v", rep.Stats)
	}
	if len(rep.Plan.DirtyNext) != 0 || rep.Plan.PrevLen != rep.Plan.NextLen {
		t.Fatalf("expected identity plan, got %d dirty, %d->%d", len(rep.Plan.DirtyNext), rep.Plan.PrevLen, rep.Plan.NextLen)
	}
	for i, v := range rep.Plan.Remap {
		if v != int32(i) {
			t.Fatalf("Remap[%d] = %d, want identity", i, v)
		}
	}
	for reg, rr := range gen.Result.Regions {
		if prevGen.Result.Regions[reg] != rr {
			t.Errorf("region %v was rebuilt instead of aliased", reg)
		}
	}
}

// TestDeltaReloadBreaker proves the operational failure mode of a
// timer reload over a churned epoch: a corrupt successor fed to
// unforced reloads of a strict full builder fails each reload, leaves
// the live snapshot serving the previous generation, and trips the
// reload circuit breaker — it never swaps poisoned data into the
// serving state.
func TestDeltaReloadBreaker(t *testing.T) {
	baseDir, nextDir := writeEpochPair(t, 11, 0.01)
	builderDir := baseDir
	s := serve.New(serve.Config{
		Build: func(ctx context.Context) (*serve.Snapshot, error) {
			_, sum, res, err := LoadAndInferContext(ctx, builderDir, StrictLoad(), Options{})
			if err != nil {
				return nil, err
			}
			return serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses), nil
		},
		ReloadAttempts: 1,
		BreakerAfter:   2,
	})
	ctx := context.Background()
	if err := s.Reload(ctx, true); err != nil {
		t.Fatalf("initial load: %v", err)
	}

	// A good timer reload of the successor epoch works and reports its
	// mode.
	builderDir = nextDir
	if err := s.Reload(ctx, false); err != nil {
		t.Fatalf("timer reload: %v", err)
	}
	if ev := s.LastReload(); ev == nil || !ev.OK || ev.Mode != serve.ModeFull {
		t.Fatalf("reload event = %+v, want ok mode=%s", ev, serve.ModeFull)
	}
	live := s.Snapshot()

	// Corrupt the successor epoch: every strict reload now fails, and
	// after BreakerAfter failures the breaker opens.
	if _, err := faultgen.Corrupt(nextDir, 99); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Reload(ctx, false); err == nil {
			t.Fatalf("reload %d over corrupt epoch succeeded", i)
		}
	}
	if err := s.Reload(ctx, false); err != serve.ErrBreakerOpen {
		t.Fatalf("breaker did not open: %v", err)
	}
	if s.Snapshot() != live {
		t.Fatal("failed reloads replaced the live snapshot")
	}
}
