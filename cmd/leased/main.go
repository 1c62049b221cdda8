// Command leased is the long-running lease-lookup daemon: it loads a
// dataset directory, runs the inference once, and serves prefix/ASN
// lease queries, the Table-1 summary, and the load report from an
// immutable in-memory snapshot. Single lookups go to /lookup
// (?prefix=, ?ip=, ?asn=); bulk address classification goes to
// POST /lookup/batch with {"ips": [...]} (up to serve.MaxBatchIPs
// addresses per call), answered from one snapshot generation via the
// allocation-free LPM index.
//
// Robustness model (see internal/serve): queries read the current
// snapshot through an atomic pointer; a reload builds the next snapshot
// off-thread with retry and jittered exponential backoff and swaps it
// in only on success. A failed reload — corrupt mirror, tripped
// ingestion circuit breaker — leaves the previous snapshot serving and
// degrades /readyz; after repeated failures the reload breaker opens
// and only an operator SIGHUP retries. Requests are bounded by a
// per-request timeout and a concurrency limiter that sheds with 429 +
// Retry-After; handler panics become 500s, never process exits. The
// HTTP server itself is bounded on every connection-pinning dimension
// (header read, body read, response write, idle keep-alive, header
// size), so a slow or stuck peer cannot pin connections indefinitely.
//
// Observability: structured logs (key=value or JSON via -log-format) on
// stderr, Prometheus metrics on /metrics, and — when -pprof is set —
// the Go profiler on /debug/pprof/*. Request tracing is always on:
// -trace-sample head-samples requests (default 1%), error and slow-tail
// requests are kept regardless, every reload cycle is traced, and
// finished traces are served as JSON from /debug/traces. Sampled
// responses carry X-Trace-Id; incoming W3C traceparent headers are
// honored, and snapshot fetches propagate them so a replica's
// fetch/open/swap joins the publisher's reload trace. See the
// README's Observability section for the metric catalog and trace
// query parameters.
//
// Reloads: every reload — the boot load, a -reload timer tick, SIGHUP —
// is the same full rebuild: a load of the sources the inference reads
// (the WHOIS dumps, the RIBs, AS relationships and as2org), one
// inference run, and a fresh index. Nothing is kept between reloads
// beyond the serving snapshot.
//
// Memory at rest: after a forced full reload (the boot load, SIGHUP)
// has swapped and published, the daemon returns the build's garbage to
// the OS in the background, so an idle publisher's resident set is its
// serving state. Timer reloads skip this; the next tick reuses the heap.
//
// Persistence and replication (see internal/snapstore): every snapshot
// a reload builds is encoded into a checksummed binary generation
// file, atomically published to the daemon's snapshot store, and
// served opened from that file — a generation that cannot be persisted
// fails the reload and is never served. The store is -snapshot-dir, or
// without it a private temporary directory that keeps one generation
// and is removed when the daemon exits. With -snapshot-dir a restart
// cold-starts from the newest valid generation in O(bytes) — no
// dataset parse, no inference — falling back generation by generation
// past anything corrupt, then to a full load. The current generation
// is always exposed on /snapshot/current. With -snapshot-url, the
// daemon is a replica: it serves snapshots fetched from another
// daemon's /snapshot/current (polling with -poll, conditional GETs,
// lag surfaced on /statusz and replica_generation_lag) and needs no
// dataset, only a store to stream fetched generations into; with
// -snapshot-dir those outlive the process, so the replica can cold
// start with its publisher down. A publisher answering 429/503 with
// Retry-After is honored: the replica suppresses polls for the hinted
// duration, capped at one poll interval.
//
// On-disk generations are served zero-copy: the file is memory-mapped,
// every section CRC is verified eagerly at open (validate-then-trust —
// a corrupt file fails then, never mid-request), and the serving
// indexes are views over the mapping, so a cold start costs page-cache
// faults instead of a full decode and two daemons on one host share
// the physical memory. Replicas stream fetched bodies straight to disk
// and map the adopted file, never buffering a snapshot on the heap.
// There is no switch for this: every daemon serves a mapped generation
// file, and only a platform or filesystem where mapping fails reads
// the file onto the heap instead. A generation file of
// another format version is skipped like a corrupt one: a publisher
// re-infers, a replica re-fetches.
//
// Signals:
//
//	SIGHUP          forced full reload (runs even with the breaker open;
//	                on a replica, a forced full fetch)
//	SIGTERM/SIGINT  graceful shutdown, draining in-flight requests
//
// Usage:
//
//	leased -data dataset [-addr 127.0.0.1:8402] [-strict] [-reload 24h]
//	       [-drain 10s] [-max-inflight 128] [-timeout 5s]
//	       [-log-format text|json] [-log-level info] [-pprof]
//	       [-snapshot-dir dir] [-snapshot-keep 4]
//	       [-snapshot-url http://publisher:8402/snapshot/current] [-poll 15s]
//	       [-trace-sample 0.01] [-trace-buffer 256] [-trace-seed 0]
//
// The daemon body lives in internal/daemon, shared with the fleet chaos
// harness (cmd/leasestorm); this command is the flag surface around it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ipleasing/internal/daemon"
	"ipleasing/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr, nil); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "leased:", err)
		os.Exit(1)
	}
}

// run parses args and runs the daemon until ctx ends or a signal stops
// it, logging to stderr; ready, when non-nil, gets the bound address.
func run(ctx context.Context, args []string, stderr io.Writer, ready func(addr string)) error {
	var cfg daemon.Config
	fs := flag.NewFlagSet("leased", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Data, "data", "dataset", "dataset directory")
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:8402", "listen address")
	fs.BoolVar(&cfg.Strict, "strict", false, "strict ingestion: any malformed record fails a (re)load")
	fs.DurationVar(&cfg.Reload, "reload", 0, "timer-driven reload period (0 disables; SIGHUP always reloads)")
	fs.DurationVar(&cfg.Drain, "drain", 10*time.Second, "graceful-shutdown drain budget")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", serve.DefaultMaxInFlight, "concurrent requests before shedding with 429")
	fs.DurationVar(&cfg.Timeout, "timeout", serve.DefaultRequestTimeout, "per-request handling budget")
	fs.StringVar(&cfg.LogFormat, "log-format", "text", "log record format: text (key=value) or json")
	fs.StringVar(&cfg.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.BoolVar(&cfg.Pprof, "pprof", false, "expose the Go profiler on /debug/pprof/*")
	fs.StringVar(&cfg.SnapshotDir, "snapshot-dir", "", "persist every serving snapshot to this directory and cold-start from the newest valid generation (default: a private temporary directory, removed on exit)")
	fs.IntVar(&cfg.SnapshotKeep, "snapshot-keep", 4, "snapshot generations retained in -snapshot-dir (negative keeps all)")
	fs.StringVar(&cfg.SnapshotURL, "snapshot-url", "", "replica mode: serve snapshots fetched from this publisher endpoint (e.g. http://host:8402/snapshot/current) instead of loading -data")
	fs.DurationVar(&cfg.Poll, "poll", 15*time.Second, "replica poll period for new publisher generations")
	fs.Float64Var(&cfg.TraceSample, "trace-sample", 0, "request-trace head-sampling rate in [0,1] (0 means the default 1%; negative disables tracing)")
	fs.IntVar(&cfg.TraceBuffer, "trace-buffer", 0, "finished traces retained per collector ring (0 means the default 256)")
	fs.Int64Var(&cfg.TraceSeed, "trace-seed", 0, "seed for trace IDs and the head sampler (0 draws from the clock)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return daemon.Run(ctx, cfg, stderr, ready)
}
