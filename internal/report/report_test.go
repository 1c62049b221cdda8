package report

import (
	"bytes"
	"strings"
	"testing"

	"ipleasing/internal/abuse"
	"ipleasing/internal/baseline"
	"ipleasing/internal/ecosystem"
	"ipleasing/internal/eval"
	"ipleasing/internal/legacy"
	"ipleasing/internal/synth"
)

func TestMarkdownFull(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 81, Scale: 0.005})
	p := w.Pipeline()
	res := p.Infer()

	isps := make([]eval.ISPRef, 0, len(w.EvalISPs))
	for _, isp := range w.EvalISPs {
		isps = append(isps, eval.ISPRef{Registry: isp.Registry, Name: isp.Name})
	}
	ref := eval.Curate(eval.Inputs{
		Whois: w.Whois, Table: p.Table, Brokers: w.Brokers,
		Exclusions: w.Exclusions, ISPs: isps,
	})
	ev := eval.Evaluate(ref, res)
	ov := ecosystem.OverlapHijackers(res, p.Table, w.Hijackers)
	rep := abuse.Analyze(res, p.Table, w.Drop, w.RPKI.UnionSet())
	cmp := baseline.Compare(baseline.Infer(w.Whois, baseline.Options{}), res)
	leg := legacy.Summarize(legacy.Infer(legacy.Inputs{Whois: w.Whois, Table: p.Table, Related: p.Related}))

	var buf bytes.Buffer
	err := Markdown(&buf, &Data{
		Result:          res,
		Reference:       ref,
		Evaluation:      ev,
		TopHolders:      ecosystem.TopHolders(res, w.Whois, 3),
		TopFacilitators: ecosystem.TopFacilitators(res, w.Whois, 3),
		TopOriginators:  ecosystem.TopOriginators(res, w.Orgs, 5),
		Hijackers:       &ov,
		Abuse:           rep,
		Baseline:        &cmp,
		Legacy:          &leg,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# IP Leasing Inference — Reproduction Report",
		"## Table 1",
		"| 1 Unused |",
		"## Table 2",
		"(TP)",
		"## Table 3",
		"Resilans",
		"## §6.3",
		"Top facilitators per registry",
		"## §6.4",
		"Abuse ratio",
		"## §6.1",
		"## §8 — legacy-space inference",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown tables must have matching header/separator pipes.
	if strings.Contains(out, "||") {
		t.Error("empty markdown cell produced")
	}
}

func TestMarkdownPartial(t *testing.T) {
	var buf bytes.Buffer
	if err := Markdown(&buf, &Data{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# IP Leasing Inference") {
		t.Fatal("title missing")
	}
	if strings.Contains(out, "## Table 1") {
		t.Fatal("empty data rendered Table 1")
	}
}
