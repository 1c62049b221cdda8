package ipleasing

// Equivalence and oracle contract of the serving-scoped load: the
// LoadAndInfer entry points parse only the sources the inference reads,
// and over every dataset a full load accepts they must serve exactly
// what a full load followed by Infer would — same result bytes, same
// load reports for the sources they read, same skipped analyses — while
// recovering the generator's planted intent.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipleasing/internal/faultgen"
)

// servedSource names the load reports a serving load keeps: the
// registry dumps, the RIBs, and the two auxiliary sources the
// inference reads.
func servedSource(name string) bool {
	return strings.HasPrefix(name, "whois/") || strings.HasPrefix(name, "bgp/") ||
		name == "asrel" || name == "as2org"
}

func TestServingLoadMatchesFullLoad(t *testing.T) {
	type variant struct {
		name   string
		damage func(t *testing.T, dir string, seed int64)
	}
	variants := []variant{{"clean", func(*testing.T, string, int64) {}}}
	for _, src := range optionalSources {
		src := src
		variants = append(variants, variant{"without-" + src.path, func(t *testing.T, dir string, _ int64) {
			if err := os.RemoveAll(filepath.Join(dir, src.path)); err != nil {
				t.Fatal(err)
			}
		}})
	}
	variants = append(variants, variant{"corrupt", func(t *testing.T, dir string, seed int64) {
		if _, err := faultgen.Corrupt(dir, seed); err != nil {
			t.Fatal(err)
		}
	}})

	for _, seed := range []int64{1, 2, 3} {
		world := Generate(Config{Seed: 300 + seed, Scale: 0.005})
		pristine := filepath.Join(t.TempDir(), "ds")
		if err := world.WriteDir(pristine); err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			dir := copyDataset(t, pristine)
			v.damage(t, dir, seed)
			for _, policy := range []struct {
				name string
				opts LoadOptions
			}{{"strict", StrictLoad()}, {"lenient", LenientLoad()}} {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, v.name, policy.name), func(t *testing.T) {
					checkServingLoad(t, dir, policy.opts)
				})
			}
		}
		t.Run(fmt.Sprintf("seed%d/planted-intent", seed), func(t *testing.T) {
			checkPlantedIntent(t, world, pristine)
		})
	}

	t.Run("delta-chain", checkServingDeltaChain)
}

// copyDataset copies a dataset directory tree into a fresh temporary
// directory, so each damage variant starts from the same bytes without
// regenerating the world.
func copyDataset(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "ds")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// checkServingLoad compares one serving load of dir against the full
// load of the same directory under the same policy.
func checkServingLoad(t *testing.T, dir string, opts LoadOptions) {
	t.Helper()
	fullDS, fullSum, fullErr := LoadDatasetReport(dir, opts)
	ds, sum, res, err := LoadAndInfer(dir, opts, Options{})
	if err != nil {
		// The serving load reads a subset of the full load's sources,
		// so it can only fail where the full load fails too.
		if fullErr == nil {
			t.Fatalf("serving load failed where the full load succeeded: %v", err)
		}
		return
	}
	for name, field := range map[string]any{
		"Geo": ds.Geo, "Truth": ds.Truth, "Exclusions": ds.Exclusions,
		"EvalISPs": ds.EvalISPs, "Drop": ds.Drop, "Hijackers": ds.Hijackers,
		"Brokers": ds.Brokers, "RPKI": ds.RPKI,
	} {
		if !reflect.ValueOf(field).IsNil() {
			t.Errorf("serving dataset carries %s", name)
		}
	}
	if ds.Load != sum {
		t.Error("serving Dataset.Load does not carry the load summary")
	}
	if fullErr != nil {
		return
	}

	if got, want := rawResultBytes(t, res), rawResultBytes(t, fullDS.Infer(Options{})); got != want {
		t.Error("serving result (CSV + Table 1) differs from the full load's")
	}
	var want []*LoadReport
	for _, r := range fullSum.Reports {
		if servedSource(r.Source) {
			want = append(want, r)
		}
	}
	if len(want) != len(Registries)+4 {
		t.Fatalf("full load reported %d served sources, want %d", len(want), len(Registries)+4)
	}
	if !reflect.DeepEqual(sum.Reports, want) {
		t.Errorf("serving reports differ from the full load's served sources:\n got %v\nwant %v",
			sum.Reports, want)
	}
	if !reflect.DeepEqual(sum.SkippedAnalyses, fullSum.SkippedAnalyses) {
		t.Errorf("SkippedAnalyses = %v, full load says %v", sum.SkippedAnalyses, fullSum.SkippedAnalyses)
	}
}

// checkPlantedIntent checks the serving load of a clean world's
// dataset against the generator's planted truth, as
// TestInferenceRecoversIntent does in memory: every non-legacy leaf is
// classified as intended and no legacy block is classified at all.
func checkPlantedIntent(t *testing.T, world *World, dir string) {
	t.Helper()
	_, _, res, err := LoadAndInfer(dir, StrictLoad(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byPrefix := make(map[Prefix]Category)
	for _, inf := range res.All() {
		byPrefix[inf.Prefix] = inf.Category
	}
	total, mismatches := 0, 0
	for _, tr := range world.Truth {
		got, ok := byPrefix[tr.Prefix]
		if tr.Legacy {
			if ok {
				t.Errorf("legacy block %v was classified", tr.Prefix)
			}
			continue
		}
		total++
		if !ok || got != tr.Intended {
			mismatches++
			if mismatches < 10 {
				t.Errorf("%v: inferred %v (present %v), intended %v", tr.Prefix, got, ok, tr.Intended)
			}
		}
	}
	if total == 0 {
		t.Fatal("no truth records")
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d planted leaves misclassified", mismatches, total)
	}
}

// checkServingDeltaChain walks a chain of churned epochs the way a
// publisher's timer reloads do — one serving-scoped LoadAndInfer per
// epoch, nothing carried between them — and requires every epoch's
// result to be byte-identical to a full load and inference of that
// epoch.
func checkServingDeltaChain(t *testing.T) {
	world := Generate(Config{Seed: 31, Scale: 0.005})
	for epoch, churn := range []float64{0, 0.01, 0.05, 0.01, 1.0} {
		if epoch > 0 {
			Mutate(world, MutateConfig{Seed: int64(400 + epoch), Churn: churn})
		}
		dir := filepath.Join(t.TempDir(), "ds")
		if err := world.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		_, _, res, err := LoadAndInfer(dir, StrictLoad(), Options{})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		full, err := LoadDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rawResultBytes(t, res), rawResultBytes(t, full.Infer(Options{})); got != want {
			t.Fatalf("epoch %d (churn %g): serving reload result differs from full inference", epoch, churn)
		}
	}
}
