package ipleasing

import (
	"path/filepath"
	"testing"

	"ipleasing/internal/telemetry"
)

// TestTracedLoadAndInfer runs the full load+infer pipeline under a
// trace and checks the span tree has the expected stage structure with
// plausible record/byte accounting.
func TestTracedLoadAndInfer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := Generate(Config{Seed: 7, Scale: 0.01}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}

	tr := telemetry.NewTrace("test-run")
	ctx := tr.Context(t.Context())
	_, sum, res, err := LoadAndInferContext(ctx, dir, LenientLoad(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr.End()

	tree := tr.Tree()
	spans := map[string]*telemetry.SpanNode{}
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		spans[n.Name] = n
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)

	for _, want := range []string{
		"load.whois", "whois.parse.RIPE", "whois.parse.ARIN",
		"load.asrel", "load.as2org", "load.merge",
		"infer.RIPE",
	} {
		if spans[want] == nil {
			t.Errorf("trace missing span %q", want)
		}
	}
	// The serving load parses only what the inference reads.
	for _, unread := range []string{"load.rpki", "load.geo"} {
		if spans[unread] != nil {
			t.Errorf("serving load traced unread source span %q", unread)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Span accounting agrees with the load reports and the result.
	ripe := sum.Report("whois/RIPE")
	if got := spans["whois.parse.RIPE"].Records; got != int64(ripe.Parsed) {
		t.Errorf("whois.parse.RIPE records = %d, report says %d", got, ripe.Parsed)
	}
	if ripe.Bytes == 0 || spans["whois.parse.RIPE"].Bytes != ripe.Bytes {
		t.Errorf("whois.parse.RIPE bytes = %d, report says %d",
			spans["whois.parse.RIPE"].Bytes, ripe.Bytes)
	}
	var inferRecords int64
	for name, n := range spans {
		if len(name) > 6 && name[:6] == "infer." {
			inferRecords += n.Records
		}
	}
	if total := int64(len(res.All())); inferRecords != total {
		t.Errorf("infer spans record %d leaves, result has %d", inferRecords, total)
	}
	// No span outlives the root.
	for name, n := range spans {
		if n.Unfinished {
			t.Errorf("span %q unfinished at dump", name)
		}
		if n.DurationMS > tree.DurationMS {
			t.Errorf("span %q (%vms) longer than root (%vms)", name, n.DurationMS, tree.DurationMS)
		}
	}
}

// TestUntracedLoadStillWorks: the context-free entry points must stay
// byte-identical in behavior (nil spans, zero overhead paths).
func TestUntracedLoadStillWorks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := Generate(Config{Seed: 7, Scale: 0.01}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res := ds.Infer(Options{}); len(res.All()) == 0 {
		t.Error("untraced inference produced no leaves")
	}
}
