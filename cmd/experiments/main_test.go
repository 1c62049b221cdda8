package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipleasing"
)

var update = flag.Bool("update", false, "re-record testdata/reproduction.md from the current code")

// testDataset generates one small dataset shared by the command tests.
func testDataset(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	w := ipleasing.Generate(ipleasing.Config{Seed: 5, Scale: 0.005})
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// headings are the report's section headings, by -exp id, in order.
var headings = []struct{ exp, heading string }{
	{"table1", "## Table 1 — inference groups per registry"},
	{"table2", "## Table 2 — evaluation against the curated reference"},
	{"table3", "## Table 3 — top IP holders by inferred leases"},
	{"fig3", "## Figure 3 — lease timeline"},
	{"hijackers", "## §6.3 — originators, facilitators, hijackers"},
	{"abuse", "## §6.4 — abuse correlation"},
	{"baseline", "## §6.1 — maintainer-diff baseline comparison"},
	{"legacy", "## §8 — legacy-space inference"},
	{"geo", "## §8 — geolocation disagreement"},
	{"market", "## §8 — market dynamics"},
	{"relinfer", "## §7 — BGP-inferred AS relationships"},
	{"ablations", "## Ablations — design choices"},
}

// headingLines returns the output's Markdown heading lines.
func headingLines(out string) []string {
	var hs []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") {
			hs = append(hs, line)
		}
	}
	return hs
}

func TestRunEveryExperiment(t *testing.T) {
	dir := testDataset(t)
	for _, h := range headings {
		var out bytes.Buffer
		if err := run(&out, io.Discard, dir, 0.005, 5, h.exp); err != nil {
			t.Errorf("run(%q) failed: %v", h.exp, err)
			continue
		}
		if got := headingLines(out.String()); len(got) != 1 || got[0] != h.heading {
			t.Errorf("-exp %s wrote headings %q, want only %q", h.exp, got, h.heading)
		}
	}

	var out bytes.Buffer
	if err := run(&out, io.Discard, dir, 0.005, 5, "all"); err != nil {
		t.Fatalf("run(all) failed: %v", err)
	}
	want := []string{"# IP Leasing Inference — Reproduction Report"}
	for _, h := range headings {
		want = append(want, h.heading)
	}
	if got := headingLines(out.String()); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("-exp all wrote headings\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	dir := testDataset(t)
	if err := run(io.Discard, io.Discard, dir, 0.005, 5, "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunGeneratesMissingDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	var out, errOut bytes.Buffer
	if err := run(&out, &errOut, dir, 0.005, 1, "table1"); err != nil {
		t.Fatalf("run on missing dataset: %v", err)
	}
	if !strings.Contains(errOut.String(), "generating dataset") {
		t.Errorf("stderr %q does not report the generation", errOut.String())
	}
	if strings.Contains(out.String(), "generating") {
		t.Errorf("stdout carries the generation line:\n%s", out.String())
	}
	// A second run must reuse the generated dataset.
	errOut.Reset()
	if err := run(io.Discard, &errOut, dir, 0.005, 1, "table1"); err != nil {
		t.Fatalf("run on existing dataset: %v", err)
	}
	if errOut.Len() != 0 {
		t.Errorf("second run regenerated the dataset: %q", errOut.String())
	}
}

// TestGoldenReproduction pins the paper's numbers: the full report for
// seed 1, scale 0.02 (the documented defaults), generated afresh, must
// equal testdata/reproduction.md byte for byte. A change that moves a
// number re-records the golden with `go test ./cmd/experiments -run
// Golden -update` and explains the moved numbers in its description.
func TestGoldenReproduction(t *testing.T) {
	golden := filepath.Join("testdata", "reproduction.md")
	var out bytes.Buffer
	if err := run(&out, io.Discard, filepath.Join(t.TempDir(), "ds"), 0.02, 1, "all"); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}
