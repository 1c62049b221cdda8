package ipleasing

// Byte-equivalence gate for snapshot persistence: a snapshot decoded
// from its binary encoding must serve responses byte-identical to the
// snapshot it was encoded from, over every query endpoint — /lookup,
// /lookup/batch, /table1, /loadreport — and the guarantee must hold
// for delta-patched generations across churn levels, not just fresh
// full builds. Any divergence here means a replica or a cold-started
// daemon would answer differently from the publisher that wrote the
// file.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
)

// serveResponses runs a server over one snapshot and captures the raw
// response bytes of every query surface, including a batch POST.
func serveResponses(t *testing.T, snap *serve.Snapshot) map[string][]byte {
	t.Helper()
	s := serve.New(serve.Config{
		Build: func(context.Context) (*serve.Snapshot, error) { return snap, nil },
	})
	if err := s.Reload(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{"/table1", "/loadreport"}
	var batch []string
	for i := 0; i < min(8, snap.NumInferences()); i++ {
		inf := snap.Inference(i)
		paths = append(paths,
			"/lookup?prefix="+inf.Prefix.String(),
			fmt.Sprintf("/lookup?ip=%v", inf.Prefix.First()),
		)
		if len(inf.LeafOrigins) > 0 {
			paths = append(paths, fmt.Sprintf("/lookup?asn=%d", inf.LeafOrigins[0]))
		}
		batch = append(batch, fmt.Sprintf("%q", inf.Prefix))
	}
	paths = append(paths, "/lookup?ip=255.255.255.254") // a certain miss

	out := make(map[string][]byte, len(paths)+1)
	for _, p := range paths {
		resp, err := ts.Client().Get(ts.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		out[p] = body
	}
	req := "[" + strings.Join(batch, ",") + "]"
	resp, err := ts.Client().Post(ts.URL+"/lookup/batch", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out["POST /lookup/batch"] = body
	return out
}

func assertResponsesIdentical(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: captured %d responses, want %d", label, len(got), len(want))
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok {
			t.Fatalf("%s: no response captured for %s", label, p)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s diverged:\n got: %s\nwant: %s", label, p, g, w)
		}
	}
}

// TestSnapshotCodecServesIdenticalBytes sweeps churned delta
// generations: for each churn level the live next-generation snapshot
// (delta-patched where the delta path engages, full otherwise) is
// encoded, decoded, and both are queried over HTTP; every response must
// match byte for byte.
func TestSnapshotCodecServesIdenticalBytes(t *testing.T) {
	ctx := context.Background()
	opts := Options{}
	for _, churn := range []float64{0, 0.05, 1.0} {
		t.Run(fmt.Sprintf("churn=%g", churn), func(t *testing.T) {
			baseDir, nextDir := writeEpochPair(t, 11, churn)
			prevDS, _, prevRes, err := LoadAndInfer(baseDir, LenientLoad(), opts)
			if err != nil {
				t.Fatal(err)
			}
			prevGen := &Generation{Dataset: prevDS, Result: prevRes, Opts: opts}
			prevSnap := serve.NewSnapshot(prevRes, nil, nil)

			nextDS, sum, _, err := LoadAndInfer(nextDir, LenientLoad(), opts)
			if err != nil {
				t.Fatal(err)
			}
			gen, rep := InferDelta(ctx, nextDS, sum, opts, prevGen, DeltaChurnFallback)
			var live *serve.Snapshot
			if rep.Mode == "delta" {
				live = serve.PatchSnapshot(prevSnap, gen.Result, rep.Plan, sum.Reports, sum.SkippedAnalyses)
			} else {
				live = serve.NewSnapshot(gen.Result, sum.Reports, sum.SkippedAnalyses)
			}
			live.BuiltAt = time.Now().UTC()
			live.Dir = nextDir

			data := snapstore.Encode(live, 3)
			decoded, fileGen, err := snapstore.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if fileGen != 3 {
				t.Fatalf("decoded generation %d, want 3", fileGen)
			}
			snapshotProbe(t, "decoded vs live", decoded, live)
			assertResponsesIdentical(t, fmt.Sprintf("churn=%g", churn),
				serveResponses(t, decoded), serveResponses(t, live))
		})
	}
}
