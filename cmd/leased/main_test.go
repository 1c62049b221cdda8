package main

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipleasing"
)

// start runs leased with args until the test ends and returns its base
// URL, taken from the ready callback.
func start(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, io.Discard, func(addr string) { ready <- addr }) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("leased %v exited with %v", args, err)
			}
		case <-time.After(30 * time.Second):
			t.Errorf("leased %v did not exit on cancel", args)
		}
	})
	select {
	case addr := <-ready:
		return "http://" + addr
	case err := <-errc:
		t.Fatalf("leased %v exited before listening: %v", args, err)
	case <-time.After(60 * time.Second):
		t.Fatalf("leased %v never listened", args)
	}
	return ""
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// missingFamilies returns the families no line of exposition starts with.
func missingFamilies(exposition string, families ...string) []string {
	var missing []string
	for _, f := range families {
		if !strings.HasPrefix(exposition, f) && !strings.Contains(exposition, "\n"+f) {
			missing = append(missing, f)
		}
	}
	return missing
}

// TestPublisherAndReplicaFromFlags boots a publisher and a replica from
// the command-line flags an operator would pass and checks the wiring
// the flags select: the metric families, sampled request and reload
// traces, and a replica that serves the publisher's bytes.
func TestPublisherAndReplicaFromFlags(t *testing.T) {
	tmp := t.TempDir()
	data := filepath.Join(tmp, "ds")
	if err := ipleasing.Generate(ipleasing.Config{Seed: 11, Scale: 0.005}).WriteDir(data); err != nil {
		t.Fatal(err)
	}
	pub := start(t, "-addr", "127.0.0.1:0", "-data", data, "-snapshot-dir", filepath.Join(tmp, "snaps"),
		"-trace-sample", "1", "-trace-seed", "7")

	get(t, pub+"/lookup?prefix=1.0.0.0/24") // one request, so latency buckets exist
	if missing := missingFamilies(get(t, pub+"/metrics"),
		"http_requests_total",
		"http_request_duration_seconds_bucket",
		"reload_cycles_total",
		"reload_cycles_by_mode_total",
		"reload_breaker_open",
		"snapshot_age_seconds",
		"ingest_parsed_records_total",
		"ingest_skipped_records_total",
		"snapshot_publish_total",
		"snapshot_bytes",
		"go_goroutines",
		"go_heap_alloc_bytes",
		"go_heap_released_bytes",
		"go_gc_cycles_total",
		"process_resident_memory_bytes",
		"process_start_time_seconds",
	); len(missing) > 0 {
		t.Errorf("publisher /metrics missing families %v", missing)
	}
	// -trace-sample 1 traces the lookup above; the boot reload is traced
	// whatever the rate.
	traces := get(t, pub+"/debug/traces")
	if !strings.Contains(traces, `"trace_id"`) || !strings.Contains(traces, `"kind": "reload"`) {
		t.Errorf("/debug/traces lacks a sampled request or reload trace:\n%.2000s", traces)
	}

	// The replica's boot reload is its first fetch, so it serves from
	// the moment it listens.
	rep := start(t, "-addr", "127.0.0.1:0", "-data", filepath.Join(tmp, "nonexistent"),
		"-snapshot-url", pub+"/snapshot/current", "-poll", "250ms")
	if got, want := get(t, rep+"/table1"), get(t, pub+"/table1"); got != want {
		t.Errorf("replica /table1 differs from the publisher's:\n got: %s\nwant: %s", got, want)
	}
	if get(t, rep+"/snapshot/current") == "" {
		t.Error("replica re-exposes an empty /snapshot/current")
	}
	if missing := missingFamilies(get(t, rep+"/metrics"), "replica_fetch_total", "replica_generation_lag"); len(missing) > 0 {
		t.Errorf("replica /metrics missing families %v", missing)
	}
}
