// Package daemon is the lease-lookup daemon body shared by cmd/leased
// and the fleet chaos harness (cmd/leasestorm): flag-shaped Config in,
// a fully wired serving process out. Extracting it from cmd/leased lets
// the harness boot a real publisher + N replica fleet in-process — same
// reload machinery, same persistence layer, same telemetry — instead of
// shelling out to binaries it cannot race-instrument.
//
// See the cmd/leased package documentation for the operational model
// (robustness, persistence, replication, signals); Run implements it.
package daemon

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipleasing"
	"ipleasing/internal/serve"
	"ipleasing/internal/telemetry"
)

// HTTP server hardening defaults. Only the header-read budget was
// bounded historically; the rest close the remaining ways a slow or
// stuck peer can pin a connection forever: a trickled POST /lookup/batch
// body (ReadTimeout), a client that stops draining a large
// /snapshot/current response (WriteTimeout), an idle keep-alive herd
// (IdleTimeout), and an absurd header (MaxHeaderBytes).
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	// DefaultReadTimeout bounds reading one whole request, body
	// included. Batch bodies are capped at 1 MiB, so anything still
	// trickling after 30s is a slowloris, not a client.
	DefaultReadTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds writing one whole response. It must
	// accommodate a replica pulling a multi-megabyte /snapshot/current
	// over a slow link, so it is generous — but finite.
	DefaultWriteTimeout = 2 * time.Minute
	// DefaultIdleTimeout reaps keep-alive connections parked between
	// requests.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultMaxHeaderBytes caps request header size; no legitimate
	// client of this API sends even a kilobyte of headers.
	DefaultMaxHeaderBytes = 1 << 16
)

// Config carries the daemon's flag-shaped configuration; cmd/leased
// maps its flags onto it one to one. The zero value of every field is a
// usable default except Data, which must name a dataset directory
// (unless SnapshotURL makes this a replica, which needs no dataset).
type Config struct {
	Data        string        // dataset directory
	Addr        string        // listen address
	Strict      bool          // strict ingestion: any malformed record fails a (re)load
	Reload      time.Duration // timer-driven reload period (0 disables)
	Drain       time.Duration // graceful-shutdown budget
	MaxInFlight int           // concurrent requests before shedding
	Timeout     time.Duration // per-request handling budget
	LogFormat   string        // "text" or "json"
	LogLevel    string        // minimum log level
	Pprof       bool          // expose /debug/pprof/*

	SnapshotDir  string        // persist serving snapshots here; cold-start from it ("" = private, removed by Run)
	SnapshotKeep int           // generations retained in SnapshotDir
	SnapshotURL  string        // replica mode: fetch snapshots from this publisher endpoint
	Poll         time.Duration // replica poll period

	// HTTP server hardening bounds; zero means the package defaults
	// above.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration

	// JitterSeed seeds the reload/poll backoff jitter RNG (see
	// serve.Config.JitterSeed); zero draws from the clock. The chaos
	// harness pins it per fleet member for reproducible runs.
	JitterSeed int64

	// TraceSample is the head-sampling rate for request traces in [0,1].
	// Zero means DefaultTraceSample; negative disables tracing entirely
	// (no /debug/traces endpoint, no per-request decision). Reload traces
	// and error/slow tails are kept regardless of the rate.
	TraceSample float64
	// TraceBuffer bounds each of the collector's two trace rings; zero
	// means the telemetry package default (256 per ring).
	TraceBuffer int
	// TraceSeed pins the trace ID generator and head sampler for
	// reproducible runs; zero draws from the clock.
	TraceSeed int64
}

// DefaultTraceSample is the head-sampling rate when Config.TraceSample
// is zero: 1% keeps always-on tracing cheap while still producing a
// steady trickle of exemplar request traces.
const DefaultTraceSample = 0.01

// newLogger builds the daemon logger from the config values.
func newLogger(cfg Config, w io.Writer) (*telemetry.Logger, error) {
	level, err := telemetry.ParseLogLevel(cfg.logLevelOrDefault())
	if err != nil {
		return nil, err
	}
	var format string
	switch strings.ToLower(cfg.LogFormat) {
	case "", "text":
		format = telemetry.FormatText
	case "json":
		format = telemetry.FormatJSON
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", cfg.LogFormat)
	}
	return telemetry.NewLogger(w, telemetry.LoggerOptions{Level: level, Format: format}), nil
}

func (c Config) logLevelOrDefault() string {
	if c.LogLevel == "" {
		return "info"
	}
	return c.LogLevel
}

// snapshotBuilder is the daemon's snapshot build step: one
// serving-scoped dataset load (see ipleasing.LoadAndInfer) under the
// configured ingestion policy plus one full inference run. Boot,
// SIGHUP and timer reloads all take it, and it keeps nothing between
// builds: the parsed dataset is garbage once the snapshot is indexed,
// so a publisher holds only its serving state.
type snapshotBuilder struct {
	cfg  Config
	opts ipleasing.LoadOptions
}

func newSnapshotBuilder(cfg Config) *snapshotBuilder {
	opts := ipleasing.LenientLoad()
	if cfg.Strict {
		opts = ipleasing.StrictLoad()
	}
	return &snapshotBuilder{cfg: cfg, opts: opts}
}

// buildFull is the full rebuild: load, infer everything, index from
// scratch.
func (b *snapshotBuilder) buildFull(ctx context.Context) (*serve.Snapshot, error) {
	_, sum, res, err := ipleasing.LoadAndInferContext(ctx, b.cfg.Data, b.opts, ipleasing.Options{})
	if err != nil {
		return nil, err
	}
	snap := serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
	snap.Dir = b.cfg.Data
	snap.Strict = b.cfg.Strict
	return snap, nil
}

// handler wires the service handler, optionally mounting the profiler.
// pprof is flag-gated and wired explicitly — importing net/http/pprof
// for its DefaultServeMux side effect would expose the profiler
// unconditionally.
func handler(cfg Config, s *serve.Server) http.Handler {
	if !cfg.Pprof {
		return s.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// newHTTPServer builds the hardened HTTP server around a handler. Every
// connection-pinning dimension is bounded: a peer can no longer hold a
// connection open indefinitely by trickling a request body, refusing to
// drain a response, or parking idle.
func newHTTPServer(cfg Config, h http.Handler) *http.Server {
	readTimeout := cfg.ReadTimeout
	if readTimeout <= 0 {
		readTimeout = DefaultReadTimeout
	}
	writeTimeout := cfg.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = DefaultWriteTimeout
	}
	idleTimeout := cfg.IdleTimeout
	if idleTimeout <= 0 {
		idleTimeout = DefaultIdleTimeout
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    DefaultMaxHeaderBytes,
	}
}

// serveConfig wires the serving layer for one daemon role: a publisher
// builds from the dataset, a replica builds from fetched snapshots on
// its poll loop instead of a reload timer.
func serveConfig(cfg Config, b *snapshotBuilder, snaps *snapshots, logger *telemetry.Logger, reg *telemetry.Registry) serve.Config {
	scfg := serve.Config{
		Build:          snaps.wrapBuild(b.buildFull),
		ReloadEvery:    cfg.Reload,
		MaxInFlight:    cfg.MaxInFlight,
		RequestTimeout: cfg.Timeout,
		Logger:         logger,
		Metrics:        reg,
		JitterSeed:     cfg.JitterSeed,
		Replication:    snaps.replicationStatus,
	}
	if cfg.TraceSample >= 0 {
		rate := cfg.TraceSample
		if rate == 0 {
			rate = DefaultTraceSample
		}
		scfg.Traces = telemetry.NewTracePlane(telemetry.TracePlaneOptions{
			SampleRate: rate,
			Seed:       cfg.TraceSeed,
			Capacity:   cfg.TraceBuffer,
			Registry:   reg,
		})
	}
	if snaps.replica() {
		// Replica: the builder fetches encoded snapshots instead of
		// loading Data; the poll loop Run starts replaces the reload
		// timer.
		scfg.Build = snaps.buildFromFetch
		scfg.ReloadEvery = 0
	}
	return scfg
}

// Run is the daemon body. It refuses to start without a first good
// snapshot, then serves until SIGTERM/SIGINT (draining in-flight
// requests), context cancellation, or a listener error. The ready
// callback, when non-nil, is invoked with the bound address once the
// listener is open (tests and the fleet harness bind :0 and need the
// chosen port).
func Run(ctx context.Context, cfg Config, logw io.Writer, ready func(addr string)) error {
	logger, err := newLogger(cfg, logw)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	snaps, err := newSnapshots(cfg, logger, reg)
	if err != nil {
		return err
	}
	defer snaps.close()
	s := serve.New(serveConfig(cfg, newSnapshotBuilder(cfg), snaps, logger, reg))
	s.Route("snapshot", "/snapshot/current", false, snaps.pub.ServeHTTP)
	// The first load is synchronous and fatal on failure: a daemon with
	// nothing to serve should crash-loop visibly, not sit unready.
	if err := s.Reload(ctx, true); err != nil {
		return fmt.Errorf("initial load of %s: %w", cfg.Data, err)
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	logger.Info("listening",
		"addr", ln.Addr(), "dataset", cfg.Data,
		"inferences", s.Snapshot().NumInferences(), "pprof", cfg.Pprof,
		"snapshot_dir", snaps.store.Dir(), "snapshot_url", cfg.SnapshotURL)
	if ready != nil {
		ready(ln.Addr().String())
	}

	// Every goroutine that can publish into the store is waited for
	// before Run returns, so a private store is removed only once
	// nothing writes to it.
	var bg sync.WaitGroup
	ctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		bg.Wait()
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		if snaps.replica() {
			snaps.pollLoop(ctx, s)
		} else {
			s.ReloadLoop(ctx)
		}
	}()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)

	srv := newHTTPServer(cfg, handler(cfg, s))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	shutdown := func(why string) error {
		logger.Info("draining in-flight requests", "reason", why, "budget", cfg.Drain)
		dctx, dcancel := context.WithTimeout(context.Background(), cfg.Drain)
		defer dcancel()
		if err := srv.Shutdown(dctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		logger.Info("drained, exiting")
		return nil
	}

	for {
		select {
		case err := <-errc:
			return fmt.Errorf("serve: %w", err)
		case <-ctx.Done():
			return shutdown("context cancelled")
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				// Forced reload off the signal loop; the breaker does not
				// block an explicit operator request. On a replica this is
				// a forced fetch: the conditional-GET state is dropped so
				// the publisher's current generation transfers in full.
				snaps.forceRefresh()
				bg.Add(1)
				go func() {
					defer bg.Done()
					if err := s.Reload(ctx, true); err != nil {
						logger.Error("SIGHUP reload failed", "err", err)
					}
				}()
				continue
			}
			return shutdown(sig.String())
		}
	}
}
