package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"ipleasing/internal/telemetry"
)

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// exposition is conformant and carries the serving layer's families.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/lookup?prefix=10.0.0.0/24")
	get(t, ts, "/lookup?ip=10.0.0.77")
	get(t, ts, "/healthz")

	code, body, hdr := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if err := telemetry.LintExposition([]byte(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`http_requests_total{endpoint="lookup"} 2`,
		`http_request_duration_seconds_bucket{endpoint="lookup",le="+Inf"} 2`,
		`http_request_duration_seconds_count{endpoint="lookup"} 2`,
		"reload_cycles_total 1",
		"reload_failures_total 0",
		"reload_breaker_open 0",
		"reload_consecutive_failures 0",
		`ingest_parsed_records_total{source="whois/RIPE"} 2`,
		"snapshot_inferences 2",
		"snapshot_age_seconds",
		"snapshot_built_timestamp_seconds",
		"http_in_flight_requests",
		"process_start_time_seconds",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsTrackBreaker: failed reloads drive the failure counter and
// breaker gauge, and a forced success resets them.
func TestMetricsTrackBreaker(t *testing.T) {
	failing := true
	s := New(Config{
		Build: func(context.Context) (*Snapshot, error) {
			if failing {
				return nil, errors.New("rotten feed")
			}
			return testSnapshot(), nil
		},
		ReloadAttempts: 1,
		BreakerAfter:   2,
	})
	ctx := context.Background()
	s.Reload(ctx, false)
	s.Reload(ctx, false)

	if v := s.m.reloadFailures.Value(); v != 2 {
		t.Errorf("reload_failures_total = %d, want 2", v)
	}
	if v := s.m.breakerGauge.Value(); v != 1 {
		t.Errorf("reload_breaker_open = %v, want 1", v)
	}
	if v := s.m.consecFails.Value(); v != 2 {
		t.Errorf("reload_consecutive_failures = %v, want 2", v)
	}

	failing = false
	if err := s.Reload(ctx, true); err != nil {
		t.Fatal(err)
	}
	if v := s.m.breakerGauge.Value(); v != 0 {
		t.Errorf("reload_breaker_open after recovery = %v, want 0", v)
	}
	if v := s.m.reloadCycles.Value(); v != 3 {
		t.Errorf("reload_cycles_total = %d, want 3", v)
	}
}

// TestSharedRegistryAcrossServers: a registry passed to two server
// generations keeps cumulative counters but reads snapshot gauges from
// the newest server (SetGaugeFunc semantics).
func TestSharedRegistryAcrossServers(t *testing.T) {
	reg := telemetry.NewRegistry()
	s1 := newTestServer(t, Config{Metrics: reg})
	_ = s1
	s2 := New(Config{
		Metrics: reg,
		Build:   func(context.Context) (*Snapshot, error) { return testSnapshot(), nil },
	})
	// s2 has no snapshot yet: the gauge must follow s2, not s1.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "snapshot_inferences 0") {
		t.Errorf("snapshot_inferences should read newest server (0):\n%s", buf.String())
	}
	if err := s2.Reload(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "snapshot_inferences 2") {
		t.Errorf("snapshot_inferences after s2 reload:\n%s", buf.String())
	}
}
