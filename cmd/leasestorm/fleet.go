package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"ipleasing/internal/chaos"
	"ipleasing/internal/daemon"
)

// fleet is one in-process publisher + N replicas, with the replicas'
// snapshot polling routed through a chaos proxy. The daemons are the
// real thing — the same daemon.Run that backs cmd/leased — so the storm
// exercises production wiring, not a test double.
type fleet struct {
	publisherURL string
	replicaURLs  []string
	proxy        *chaos.Proxy

	cancel context.CancelFunc
	errcs  []chan error
}

// startMember boots one daemon and waits for its listener.
func startMember(ctx context.Context, cfg daemon.Config, logw io.Writer) (string, chan error, error) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- daemon.Run(ctx, cfg, logw, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, errc, nil
	case err := <-errc:
		return "", nil, fmt.Errorf("daemon exited before ready: %w", err)
	case <-time.After(60 * time.Second):
		return "", nil, fmt.Errorf("daemon not ready after 60s")
	}
}

// startFleet boots publisher, proxy, and replicas. The proxy starts
// passive (empty schedule): replicas prime their first snapshot through
// a clean path, and the caller arms the fault script when the storm
// begins.
func startFleet(parent context.Context, cfg StormConfig) (*fleet, error) {
	ctx, cancel := context.WithCancel(parent)
	f := &fleet{cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			f.Stop()
		}
	}()

	pubCfg := daemon.Config{
		Data:        cfg.Data,
		Addr:        "127.0.0.1:0",
		Reload:      cfg.Reload,
		Drain:       2 * time.Second,
		SnapshotDir: filepath.Join(cfg.WorkDir, "pub"),
		LogLevel:    cfg.FleetLogLevel,
		JitterSeed:  cfg.Seed + 1,
		// Seeded tracing on every member: the trace assembler joins each
		// member's /debug/traces by trace ID after the run. 5% head
		// sampling keeps organic request traces flowing; reload
		// lifecycles and error tails are retained regardless.
		TraceSample: 0.05,
		TraceBuffer: 512,
		TraceSeed:   cfg.Seed + 2,
	}
	pubURL, pubErrc, err := startMember(ctx, pubCfg, cfg.LogW)
	if err != nil {
		return nil, fmt.Errorf("publisher: %w", err)
	}
	f.publisherURL = pubURL
	f.errcs = append(f.errcs, pubErrc)

	// Replicas fatally fail their initial load if nothing is published
	// yet; wait for generation 1.
	if err := waitPublished(ctx, pubURL); err != nil {
		return nil, err
	}

	proxy, err := chaos.NewProxy(pubURL[len("http://"):], chaos.Schedule{}, chaos.Options{})
	if err != nil {
		return nil, err
	}
	f.proxy = proxy

	for i := 0; i < cfg.Replicas; i++ {
		poll := cfg.Poll
		if cfg.Sabotage == SabotageStaleReplica && i == 0 {
			// The broken-fleet mode the checker must catch: replica 0
			// fetches once at boot, then never polls again. It serves
			// its pinned generation forever and — because it never
			// contacts the publisher — self-reports zero lag.
			poll = 24 * time.Hour
		}
		repCfg := daemon.Config{
			Addr:        "127.0.0.1:0",
			SnapshotURL: "http://" + proxy.Addr() + "/snapshot/current",
			Poll:        poll,
			Drain:       2 * time.Second,
			SnapshotDir: filepath.Join(cfg.WorkDir, fmt.Sprintf("r%d", i)),
			LogLevel:    cfg.FleetLogLevel,
			JitterSeed:  cfg.Seed + 100 + int64(i),
			TraceSample: 0.05,
			TraceBuffer: 512,
			TraceSeed:   cfg.Seed + 200 + int64(i),
		}
		url, errc, err := startMember(ctx, repCfg, cfg.LogW)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		f.replicaURLs = append(f.replicaURLs, url)
		f.errcs = append(f.errcs, errc)
	}
	ok = true
	return f, nil
}

// waitPublished polls the publisher's snapshot endpoint until a
// generation is live.
func waitPublished(ctx context.Context, baseURL string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if gen, err := headGeneration(ctx, baseURL); err == nil && gen > 0 {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("publisher never published a snapshot generation")
}

// headGeneration probes /snapshot/current and returns the current
// generation — the external source of truth the invariant checker
// compares every replica against.
func headGeneration(ctx context.Context, baseURL string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, baseURL+"/snapshot/current", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("snapshot probe: status %d", resp.StatusCode)
	}
	return strconv.ParseUint(resp.Header.Get("X-Snapshot-Generation"), 10, 64)
}

// Stop tears the fleet down: cancel every daemon, wait for their exits,
// close the proxy.
func (f *fleet) Stop() {
	f.cancel()
	for _, errc := range f.errcs {
		select {
		case <-errc:
		case <-time.After(15 * time.Second):
		}
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
}
