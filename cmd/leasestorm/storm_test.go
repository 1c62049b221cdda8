package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipleasing"
	"ipleasing/internal/chaos"
)

func testDataset(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ipleasing.Generate(ipleasing.Config{Seed: 11, Scale: 0.005}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStormDeterministicVerdicts is the reproducibility contract: the
// same seed produces the same fault schedule (fingerprint) and the same
// invariant verdicts across two full runs. Byte-level fault timing may
// differ; the externally observable outcome must not.
func TestStormDeterministicVerdicts(t *testing.T) {
	data := testDataset(t)
	// Run a goes through the command line, run b through RunStorm.
	a := runCommand(t, 0, "-data", data, "-replicas", "2", "-seed", "3", "-duration", "5s",
		"-qps", "60", "-reload", "400ms", "-poll", "200ms")
	b, err := RunStorm(context.Background(), StormConfig{
		Data:     data,
		WorkDir:  t.TempDir(),
		Replicas: 2,
		Seed:     3,
		Duration: 5 * time.Second,
		QPS:      60,
		Reload:   400 * time.Millisecond,
		Poll:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("storm b: %v", err)
	}

	if a.ScheduleFingerprint != b.ScheduleFingerprint {
		t.Errorf("same seed, different schedules: %s vs %s",
			a.ScheduleFingerprint, b.ScheduleFingerprint)
	}
	if len(a.Schedule.Faults) == 0 {
		t.Error("seed 3 scheduled no faults; the storm exercised nothing")
	}
	if !a.Pass || !b.Pass {
		t.Errorf("healthy fleet failed invariants: run a=%+v run b=%+v",
			a.Violations, b.Violations)
	}
	for _, rep := range []*RunReport{a, b} {
		if rep.Load.Requests == 0 {
			t.Error("no load driven")
		}
		if rep.Samples == 0 || rep.IdentityChecks == 0 {
			t.Errorf("checker idle: samples=%d identity_checks=%d", rep.Samples, rep.IdentityChecks)
		}
		// The tracing acceptance criteria: the run must assemble at least
		// one cross-process generation-lifecycle trace (publisher reload
		// joined to a replica fetch/decode/swap by one trace ID) and at
		// least one error-tail trace.
		if rep.Traces == nil {
			t.Fatal("run report has no trace summary")
		}
		if rep.Traces.LifecycleCount == 0 {
			t.Errorf("no cross-process lifecycle traces assembled (scraped %d records)",
				rep.Traces.ScrapedRecords)
		}
		if rep.Traces.ErrorTraceCount == 0 {
			t.Error("no error-tail traces assembled")
		}
		if rep.Traces.CrossProcessCount == 0 {
			t.Error("no trace crossed a process boundary")
		}
		if rep.Load.Outliers == nil {
			t.Error("load report has no traced latency outliers")
		}
	}
}

// TestStormSabotageDetected is the negative control the acceptance
// criteria demand: a deliberately broken fleet (one replica pinned to
// its boot generation) MUST fail the invariants — a checker that cannot
// fail proves nothing.
func TestStormSabotageDetected(t *testing.T) {
	rep := runCommand(t, 1, "-data", testDataset(t), "-replicas", "2", "-seed", "3", "-duration", "5s",
		"-qps", "60", "-reload", "400ms", "-poll", "200ms", "-sabotage", "stale-replica")
	if rep.Pass {
		t.Fatal("sabotaged fleet passed the invariant checker")
	}
	var kinds []string
	for _, v := range rep.Violations {
		kinds = append(kinds, v.Invariant)
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, InvLag) && !strings.Contains(joined, InvReconvergence) {
		t.Errorf("sabotage caught by %v, want lag and/or reconvergence", kinds)
	}
}

// runCommand runs leasestorm with args plus -o, requires exit status
// want, and returns the report decoded from the -o file.
func runCommand(t *testing.T, want int, args ...string) *RunReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	var stderr strings.Builder
	if code := run(append(args, "-o", out), io.Discard, &stderr); code != want {
		t.Fatalf("leasestorm %v: exit %d, want %d\n%s", args, code, want, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report %s: %v", out, err)
	}
	return &rep
}

// metricValue scrapes one exposition line (exact needle prefix) off a
// daemon's /metrics.
func metricValue(t *testing.T, baseURL, needle string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, needle) {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(needle):]), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func servingGen(t *testing.T, baseURL string) uint64 {
	t.Helper()
	chk := &checker{client: http.DefaultClient}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	gen, err := chk.statuszGen(ctx, baseURL)
	if err != nil {
		t.Fatalf("statusz %s: %v", baseURL, err)
	}
	return gen
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestReplicaSurvivesTruncationAndCorruption drives the partial-body
// contract end to end through the real fetch path: a mid-body-truncated
// /snapshot/current is rejected (outcome "error" — the transport
// promised more bytes than it delivered), a full-length-but-corrupt one
// is rejected by the checksum (outcome "corrupt"), the replica keeps
// serving its last-good generation through both, and resumes advancing
// after the fault heals.
func TestReplicaSurvivesTruncationAndCorruption(t *testing.T) {
	cfg := StormConfig{
		Data:          testDataset(t),
		WorkDir:       t.TempDir(),
		Replicas:      1,
		Seed:          9,
		Reload:        300 * time.Millisecond,
		Poll:          150 * time.Millisecond,
		FleetLogLevel: "error",
		LogW:          io.Discard,
	}
	f, err := startFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	replica := f.replicaURLs[0]

	for _, tc := range []struct {
		fault   chaos.FaultKind
		outcome string
	}{
		{chaos.FaultTruncate, `replica_fetch_total{outcome="error"}`},
		{chaos.FaultCorrupt, `replica_fetch_total{outcome="corrupt"}`},
	} {
		before := metricValue(t, replica, tc.outcome)
		genBefore := servingGen(t, replica)

		f.proxy.Arm(chaos.Schedule{Length: time.Hour, Faults: []chaos.Fault{
			{Kind: tc.fault, Start: 0, End: 2 * time.Second},
		}})

		// The publisher advances every 300ms, so polls inside the window
		// hit full (faulted) bodies, not 304s. Each one must be rejected
		// with the right outcome label while serving stays on last-good.
		waitFor(t, 10*time.Second, fmt.Sprintf("%s outcome increment", tc.fault), func() bool {
			return metricValue(t, replica, tc.outcome) > before
		})
		if gen := servingGen(t, replica); gen != genBefore {
			// Serving may legitimately advance via a poll that landed
			// after the window ended, but never beyond the publisher.
			pub, err := headGeneration(context.Background(), f.publisherURL)
			if err != nil || gen > pub {
				t.Errorf("%s: serving generation %d implausible (was %d, publisher %d, err %v)",
					tc.fault, gen, genBefore, pub, err)
			}
		}
		if code := getCode(t, replica+"/lookup?ip=10.0.0.77"); code != 200 {
			t.Errorf("%s: lookup during fault window: code %d, want 200 from last-good snapshot",
				tc.fault, code)
		}

		// Heal: the replica must resume tracking the publisher.
		f.proxy.Arm(chaos.Schedule{})
		waitFor(t, 10*time.Second, "post-heal generation advance", func() bool {
			return servingGen(t, replica) > genBefore
		})
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
