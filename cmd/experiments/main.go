// Command experiments regenerates every table and figure of the paper's
// evaluation section over a synthetic dataset (see DESIGN.md §4 for the
// experiment index) and writes it as Markdown on stdout:
//
//	table1    — per-RIR inference groups and the leased share of BGP
//	table2    — evaluation confusion matrix against the curated reference
//	table3    — top-3 IP holders per RIR by leased prefixes
//	fig3      — a marketplace prefix's RPKI/BGP lease timeline
//	hijackers — §6.3 serial-hijacker overlap and top originators/facilitators
//	abuse     — §6.4 ASN-DROP and ROA correlation + ROV states
//	baseline  — §6.1 comparison with the maintainer-diff heuristic
//	legacy    — §8 extension: legacy-space lease inference
//	geo       — §8 extension: geolocation-database disagreement
//	market    — §8 extension: longitudinal market dynamics
//	relinfer  — §7 study: Gao-inferred AS relationships vs the dataset file
//	ablations — DESIGN.md design-choice ablations
//	all       — the full reproduction report: everything above, in order
//
// Usage:
//
//	experiments [-data dataset] [-scale 0.02] [-seed 1] [-exp all]
//
// When -data does not exist it is generated first, so
// `experiments -exp all > report.md` works from an empty checkout.
// Progress goes to stderr; stdout carries only the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ipleasing"
	"ipleasing/internal/synth"
)

func main() {
	data := flag.String("data", "", "dataset directory (default: generate into a temp dir)")
	scale := flag.Float64("scale", 0.02, "generation scale when the dataset is missing")
	seed := flag.Int64("seed", 1, "generator seed")
	exp := flag.String("exp", "all", "experiment: table1|table2|table3|fig3|hijackers|abuse|baseline|legacy|geo|market|relinfer|ablations|all")
	flag.Parse()

	if err := run(os.Stdout, os.Stderr, *data, *scale, *seed, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(stdout, stderr io.Writer, dir string, scale float64, seed int64, exp string) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ipleasing-dataset-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if _, err := os.Stat(filepath.Join(dir, synth.FileGroundTruth)); os.IsNotExist(err) {
		fmt.Fprintf(stderr, "generating dataset in %s (scale=%.3f seed=%d)...\n", dir, scale, seed)
		w := ipleasing.Generate(ipleasing.Config{Seed: seed, Scale: scale})
		if err := w.WriteDir(dir); err != nil {
			return err
		}
	}
	ds, err := ipleasing.LoadDataset(dir)
	if err != nil {
		return err
	}
	var ids []string
	if exp != "all" {
		ids = []string{exp}
	}
	return ds.WriteReport(stdout, ds.Infer(ipleasing.Options{}), ids...)
}
