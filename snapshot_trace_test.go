package ipleasing

// The cold-start contract of snapshot persistence, pinned through the
// tracer: restoring a snapshot from disk must decode the serving
// indexes directly — zero dataset parsing, zero re-inference. A full
// build under a trace emits load.*, whois.*, and infer.* spans; a
// cold-start reload over the same data must emit none of them.

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
	"ipleasing/internal/telemetry"
)

// spanNames flattens a trace tree into the set of span names it holds.
func spanNames(tree *telemetry.SpanNode) map[string]bool {
	names := map[string]bool{}
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	return names
}

// inferencePrefixes are the span families that exist only on the
// load-and-infer path. Their presence in a cold-start trace means the
// snapshot store re-derived state it claims to restore.
var inferencePrefixes = []string{"load.", "whois.", "infer.", "delta."}

func inferenceSpans(names map[string]bool) []string {
	var hits []string
	for name := range names {
		for _, p := range inferencePrefixes {
			if strings.HasPrefix(name, p) {
				hits = append(hits, name)
			}
		}
	}
	return hits
}

func TestColdStartRunsZeroInference(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := Generate(Config{Seed: 17, Scale: 0.004}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	// Positive control: a traced full build must show its work — if the
	// load/infer paths ever stop emitting spans, the absence assertion
	// below becomes vacuous and this control catches it.
	full := telemetry.NewTrace("full-build")
	fctx := full.Context(context.Background())
	_, sum, res, err := LoadAndInferContext(fctx, dir, LenientLoad(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	full.End()
	if hits := inferenceSpans(spanNames(full.Tree())); len(hits) == 0 {
		t.Fatal("traced full build emitted no load/infer spans; the zero-inference assertion would be vacuous")
	}

	st, err := snapstore.Open(filepath.Join(t.TempDir(), "snaps"), snapstore.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
	snap.Dir = dir
	if err := st.PublishEncoded(snapstore.Encode(snap, 9)); err != nil {
		t.Fatal(err)
	}

	// Cold start: a serve.Reload whose builder restores from the store,
	// traced end to end. The reload span is there; the inference
	// families must not be.
	s := serve.New(serve.Config{
		Build: func(ctx context.Context) (*serve.Snapshot, error) {
			ld, err := st.LoadCurrentOpen(snapstore.OpenOptions{})
			if err != nil {
				return nil, err
			}
			return ld.Snap, nil
		},
	})
	cold := telemetry.NewTrace("cold-start")
	cctx := cold.Context(context.Background())
	if err := s.Reload(cctx, true); err != nil {
		t.Fatalf("cold-start reload: %v", err)
	}
	cold.End()

	names := spanNames(cold.Tree())
	if !names["reload"] {
		t.Fatal("cold-start trace is missing the reload span; tracing was not wired through")
	}
	if hits := inferenceSpans(names); len(hits) != 0 {
		t.Fatalf("cold start re-ran inference work: spans %v", hits)
	}
	got := s.Snapshot()
	if got == nil || got.LoadMode() == serve.LoadModeBuilt {
		t.Fatal("cold-started snapshot is marked built, not restored")
	}
	if ev := s.LastReload(); ev == nil || ev.Mode != serve.ModeSnapshot {
		t.Fatalf("cold-start reload event = %+v, want mode=%s", ev, serve.ModeSnapshot)
	}
	if got.NumInferences() != snap.NumInferences() {
		t.Fatalf("cold start serves %d inferences, want %d", got.NumInferences(), snap.NumInferences())
	}
}
