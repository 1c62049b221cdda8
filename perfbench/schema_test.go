package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every declared metric's name and unit against
// the result schema, and that no name is declared twice.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q breaks [A-Za-z0-9_.-]", d.name)
		}
		if !unitName.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestMatchesBenchmarkJSON checks the declared metrics and workloads
// against the manifest the benchmark is run from.
func TestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, d := range want {
			units[d.name] = d.unit
		}
		for _, d := range got {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: manifest metric %s [%s] is not declared with that unit (%q)", kind, d.Name, d.Unit, u)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s better=%q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s: %s bound presence = %v", kind, d.Name, d.Bound != nil)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, d.Name, *d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %s has no runner", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, d := range m.EndToEnd {
		if *d.Bound > maxBound {
			maxBound = *d.Bound
		}
		if d.Name == "setup_s" {
			setupBound = *d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s is %s/%s", d.Unit, d.Better)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

// TestBuildResult checks the result line: exactly the four keys, every
// declared metric with its unit, nothing undeclared.
func TestBuildResult(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b.count", "count"}}
	r, err := buildResult(defs, map[string]float64{"a_ms": 1.25, "b.count": 3}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(r)
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Errorf("result keys: %s", b)
	}
	if want := `{"correct":true,"attempted":10,"failed":0,"metrics":{"a_ms":{"value":1.25,"unit":"ms"},"b.count":{"value":3,"unit":"count"}}}`; string(b) != want {
		t.Errorf("result = %s\nwant     %s", b, want)
	}
	if r, _ := buildResult(defs, map[string]float64{"a_ms": 1, "b.count": 1}, 10, 2); r.Correct {
		t.Error("a run with failures is correct")
	}
	if _, err := buildResult(defs, map[string]float64{"a_ms": 1}, 10, 0); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := buildResult(defs, map[string]float64{"a_ms": 1, "b.count": 1, "c": 1}, 10, 0); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := buildResult(defs, map[string]float64{"a_ms": 1, "b.count": 1}, 0, 0); err == nil {
		t.Error("a run with no attempts accepted")
	}
}

func TestChainWalk(t *testing.T) {
	ch := &chain{epochs: make([]epoch, 4), step: 1}
	var got []int
	for i := 0; i < 9; i++ {
		k := ch.next()
		ch.cur = k
		got = append(got, k)
	}
	if want := []int{1, 2, 3, 2, 1, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("walk = %v, want %v", got, want)
	}
}

func TestLogField(t *testing.T) {
	line := `time=2026-10-17T01:00:00.000Z level=INFO msg=listening addr=127.0.0.1:40123 dataset=/d`
	if v, ok := logField(line, "addr"); !ok || v != "127.0.0.1:40123" {
		t.Errorf("addr = %q, %v", v, ok)
	}
	if _, ok := logField(line, "port"); ok {
		t.Error("found a missing field")
	}
}

func TestBatchBodies(t *testing.T) {
	ips := make([]string, 2*batchSize+1)
	for i := range ips {
		ips[i] = "10.0.0.1"
	}
	bodies := batchBodies(ips)
	if len(bodies) != 3 {
		t.Fatalf("%d bodies", len(bodies))
	}
	var last struct{ IPs []string }
	if err := json.Unmarshal(bodies[2], &last); err != nil || len(last.IPs) != 1 {
		t.Errorf("last body %s: %v", bytes.TrimSpace(bodies[2]), err)
	}
}
