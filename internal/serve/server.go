package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/telemetry"
)

// Errors returned by Reload.
var (
	// ErrBreakerOpen means the reload circuit breaker has opened after
	// too many consecutive failed reload cycles; unforced reloads are
	// refused until a forced reload succeeds.
	ErrBreakerOpen = errors.New("serve: reload circuit breaker open")
	// ErrReloadInFlight means another reload cycle is already running.
	ErrReloadInFlight = errors.New("serve: reload already in flight")
	// ErrNoSnapshot means no snapshot has ever been loaded.
	ErrNoSnapshot = errors.New("serve: no snapshot loaded")
)

// Defaults for the zero Config fields.
const (
	DefaultMaxInFlight    = 128
	DefaultRequestTimeout = 5 * time.Second
	DefaultRetryAfter     = 1 * time.Second
	DefaultReloadAttempts = 3
	DefaultReloadBackoff  = 100 * time.Millisecond
	DefaultBreakerAfter   = 3
	// historyCap bounds the reload history kept for /statusz.
	historyCap = 32
)

// Config wires a Server. Build is the only required field.
type Config struct {
	// Build constructs the next snapshot: load the dataset, run the
	// inference, index it — or restore one from snapshot bytes. It runs
	// outside the request path (the caller's reload goroutine); a panic
	// inside it is recovered and treated as a build error, never a
	// process kill. Whatever must happen before a snapshot serves
	// (persisting and publishing it) belongs inside Build: its error
	// fails the attempt, and the swap installs exactly what it returned.
	// The snapshot's Inferred marker decides the reload mode.
	Build func(ctx context.Context) (*Snapshot, error)

	// Replication, when set, reports the daemon's snapshot replication
	// state. /statusz embeds it and /readyz attaches the generation lag,
	// so a replica serving stale generations is observable without new
	// endpoints. Called per status request; must be cheap and
	// goroutine-safe.
	Replication func() *ReplicationStatus

	// ReloadEvery is the timer-driven reload period for ReloadLoop.
	// Zero disables timed reloads (signal-driven only).
	ReloadEvery time.Duration
	// ReloadAttempts is how many times one reload cycle tries Build
	// before giving up, with exponential backoff between attempts.
	ReloadAttempts int
	// ReloadBackoff is the backoff before the second attempt; it doubles
	// per subsequent attempt.
	ReloadBackoff time.Duration
	// BreakerAfter opens the reload circuit breaker after this many
	// consecutive failed reload cycles. While open, unforced (timer)
	// reloads are refused without touching the dataset; a forced reload
	// (SIGHUP) still runs and closes the breaker on success.
	BreakerAfter int

	// MaxInFlight caps concurrently served requests; excess load is shed
	// with 429 + Retry-After instead of queueing unboundedly.
	MaxInFlight int
	// RequestTimeout bounds one request's handling time; requests over
	// it are answered 503.
	RequestTimeout time.Duration
	// RetryAfter is the hint attached to shed responses.
	RetryAfter time.Duration

	// Logger receives reload and lifecycle records; the nil logger
	// discards them.
	Logger *telemetry.Logger
	// Metrics is the registry behind /metrics and every server
	// instrument. Nil gets a fresh per-server registry, so tests and
	// embedded servers never share counters or leak scrape-time gauge
	// closures into global state.
	Metrics *telemetry.Registry

	// Traces, when set, enables request tracing: incoming W3C
	// traceparent headers are honored, a head sampler traces a fraction
	// of the rest, error and slow-outlier requests are always kept, and
	// finished traces are served from /debug/traces. Reload cycles get
	// an owned, always-kept trace when the caller's context carries
	// none. Nil disables tracing; unsampled requests pay one header
	// lookup and one sampler draw either way (the nil-span no-op path).
	Traces *telemetry.TracePlane

	// JitterSeed seeds the RNG behind the full-jitter retry backoff.
	// Zero draws from the clock; a fixed seed makes retry timing
	// reproducible (tests, chaos-harness runs).
	JitterSeed int64

	// Test hooks: clock, interruptible sleep, backoff jitter, and the
	// heap return after a forced full reload. Nil means real time /
	// full jitter / debug.FreeOSMemory.
	now          func() time.Time
	sleep        func(ctx context.Context, d time.Duration) error
	jitter       func(max time.Duration) time.Duration
	freeOSMemory func()
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ReloadAttempts <= 0 {
		out.ReloadAttempts = DefaultReloadAttempts
	}
	if out.ReloadBackoff <= 0 {
		out.ReloadBackoff = DefaultReloadBackoff
	}
	if out.BreakerAfter <= 0 {
		out.BreakerAfter = DefaultBreakerAfter
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = DefaultMaxInFlight
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = DefaultRequestTimeout
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = DefaultRetryAfter
	}
	if out.Metrics == nil {
		out.Metrics = telemetry.NewRegistry()
	}
	if out.now == nil {
		out.now = time.Now
	}
	if out.sleep == nil {
		out.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if out.freeOSMemory == nil {
		out.freeOSMemory = debug.FreeOSMemory
	}
	if out.jitter == nil {
		seed := out.JitterSeed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		rng := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		// Full jitter (uniform over [0, max]): a fleet of replicas that
		// failed together spreads its retries over the whole backoff
		// window instead of hammering a recovering publisher in lockstep.
		out.jitter = func(max time.Duration) time.Duration {
			if max <= 0 {
				return 0
			}
			mu.Lock()
			defer mu.Unlock()
			return time.Duration(rng.Int63n(int64(max) + 1))
		}
	}
	return out
}

// ReloadEvent records one reload cycle for /statusz.
type ReloadEvent struct {
	At         time.Time `json:"at"`
	OK         bool      `json:"ok"`
	Forced     bool      `json:"forced"`
	Attempts   int       `json:"attempts"`
	DurationMS int64     `json:"duration_ms"`
	// Mode is ModeFull when the cycle ran inference (the snapshot's
	// Inferred marker) and ModeSnapshot when it only restored snapshot
	// bytes (a cold-start store generation or a fetched body); a failed
	// cycle reports ModeFull.
	Mode  string `json:"mode,omitempty"`
	Error string `json:"error,omitempty"`
}

// endpointStats holds one endpoint's registry instruments, hoisted out
// of the per-request path so the hot path is a bare atomic add, never a
// label-map probe. The counters are the single source of truth: /statusz
// reads the same children /metrics scrapes.
type endpointStats struct {
	requests *telemetry.Counter   // accepted or shed, every arrival
	errors   *telemetry.Counter   // responses with status >= 500
	shed     *telemetry.Counter   // rejected by the concurrency limiter
	latency  *telemetry.Histogram // handling latency, shed excluded
}

// serveMetrics holds the server-level instruments on the registry.
type serveMetrics struct {
	requests *telemetry.CounterVec
	errors   *telemetry.CounterVec
	shed     *telemetry.CounterVec
	latency  *telemetry.HistogramVec

	reloadCycles   *telemetry.Counter
	reloadFailures *telemetry.Counter
	reloadDuration *telemetry.Histogram
	reloadByMode   *telemetry.CounterVec
	consecFails    *telemetry.Gauge
	breakerGauge   *telemetry.Gauge
}

// Server is the resilient lease-lookup HTTP service. Create one with
// New, prime it with Reload, then serve Handler.
type Server struct {
	cfg     Config
	started time.Time
	snap    atomic.Pointer[Snapshot]
	sem     chan struct{}
	mux     *http.ServeMux
	stats   map[string]*endpointStats
	m       serveMetrics

	reloadMu sync.Mutex // serialises reload cycles; TryLock guards re-entry

	// heapReturn coalesces the asynchronous heap returns forced full
	// reloads request (see returnHeap): 0 idle, 1 running, 2 running
	// with one more run requested.
	heapReturn atomic.Int32

	mu          sync.Mutex // guards the reload bookkeeping below
	history     []ReloadEvent
	reloads     int // completed reload cycles, success or failure
	consecFails int
	breakerOpen bool
}

// New builds a Server around a snapshot builder. No snapshot is loaded
// yet: either call Reload before serving (a daemon that refuses to start
// empty) or serve immediately and let /readyz report unready until the
// first reload lands.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		cfg:     c,
		started: c.now(),
		sem:     make(chan struct{}, c.MaxInFlight),
		mux:     http.NewServeMux(),
		stats:   make(map[string]*endpointStats),
	}
	s.initMetrics()
	s.route("lookup", "/lookup", true, s.handleLookup)
	s.route("lookup_batch", "/lookup/batch", true, s.handleLookupBatch)
	s.route("table1", "/table1", true, s.handleTable1)
	s.route("loadreport", "/loadreport", true, s.handleLoadReport)
	s.route("healthz", "/healthz", false, s.handleHealthz)
	s.route("readyz", "/readyz", false, s.handleReadyz)
	s.route("statusz", "/statusz", false, s.handleStatusz)
	// /metrics skips the limiter for the same reason the health probes
	// do: a scrape during overload is exactly when the numbers matter.
	s.route("metrics", "/metrics", false, c.Metrics.Handler().ServeHTTP)
	if c.Traces != nil {
		// Like /metrics: unlimited, so traces of an overload incident
		// stay inspectable during the incident.
		s.route("debug_traces", "/debug/traces", false, c.Traces.Collector.ServeHTTP)
	}
	return s
}

// initMetrics registers the server's instruments on the configured
// registry. Snapshot-shape gauges use SetGaugeFunc so a registry shared
// across server generations always reads the newest server's state.
func (s *Server) initMetrics() {
	r := s.cfg.Metrics
	s.m = serveMetrics{
		requests: r.CounterVec("http_requests_total",
			"HTTP requests received (accepted or shed), by endpoint.", "endpoint"),
		errors: r.CounterVec("http_request_errors_total",
			"HTTP responses with status >= 500, by endpoint.", "endpoint"),
		shed: r.CounterVec("http_requests_shed_total",
			"Requests rejected by the concurrency limiter with 429, by endpoint.", "endpoint"),
		latency: r.HistogramVec("http_request_duration_seconds",
			"Request handling latency in seconds (shed requests excluded), by endpoint.",
			nil, "endpoint"),
		reloadCycles: r.Counter("reload_cycles_total",
			"Completed snapshot reload cycles, success or failure."),
		reloadFailures: r.Counter("reload_failures_total",
			"Snapshot reload cycles that failed every attempt."),
		reloadDuration: r.Histogram("reload_duration_seconds",
			"Snapshot reload cycle duration in seconds.", nil),
		reloadByMode: r.CounterVec("reload_cycles_by_mode_total",
			"Completed snapshot reload cycles by how the snapshot was made (full: built in-process, snapshot: restored from snapshot bytes).", "mode"),
		consecFails: r.Gauge("reload_consecutive_failures",
			"Consecutive failed reload cycles; resets on success."),
		breakerGauge: r.Gauge("reload_breaker_open",
			"Whether the reload circuit breaker is open (0/1)."),
	}
	r.SetGaugeFunc("snapshot_age_seconds",
		"Age of the served snapshot in seconds; 0 before the first load.",
		func() float64 {
			if snap := s.snap.Load(); snap != nil {
				return s.cfg.now().Sub(snap.BuiltAt).Seconds()
			}
			return 0
		})
	r.SetGaugeFunc("snapshot_built_timestamp_seconds",
		"Unix time the served snapshot was built; 0 before the first load.",
		func() float64 {
			if snap := s.snap.Load(); snap != nil {
				return float64(snap.BuiltAt.UnixNano()) / 1e9
			}
			return 0
		})
	r.SetGaugeFunc("snapshot_inferences",
		"Classified leaf prefixes in the served snapshot.",
		func() float64 {
			if snap := s.snap.Load(); snap != nil {
				return float64(snap.NumInferences())
			}
			return 0
		})
	r.SetGaugeFunc("http_in_flight_requests",
		"Limiter slots currently held by in-flight requests.",
		func() float64 { return float64(len(s.sem)) })
	r.RegisterRuntimeMetrics()
}

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the currently served snapshot, nil before the first
// successful reload. The pointer is only guaranteed readable while it
// stays the serving snapshot; request paths that may outlive a swap use
// acquireSnap instead.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// acquireSnap returns the serving snapshot with a read reference held
// (nil before the first reload). The loop covers the one race a bare
// Load has against a view-backed snapshot: between Load and Acquire the
// swap path may retire the snapshot and the last in-flight request may
// release its mapping — Acquire then fails and the retry observes the
// replacement. Heap snapshots acquire unconditionally, so the loop
// runs once. Callers must Release exactly once.
func (s *Server) acquireSnap() *Snapshot {
	for {
		snap := s.snap.Load()
		if snap == nil || snap.Acquire() {
			return snap
		}
	}
}

// Route registers an additional endpoint behind the same hardening
// middleware (arrival counting, optional load shedding + request
// deadline, latency observation, panic-to-500) and per-endpoint metric
// children as the built-in routes. The daemon uses it to mount the
// snapshot publish endpoint without the serving layer importing the
// snapshot store. Must be called before the handler serves traffic;
// name must be unique among the server's endpoints.
func (s *Server) Route(name, pattern string, limited bool, h http.HandlerFunc) {
	if _, dup := s.stats[name]; dup {
		panic(fmt.Sprintf("serve: duplicate route name %q", name))
	}
	s.route(name, pattern, limited, h)
}

// route registers one endpoint behind the hardening middleware.
// Health and status endpoints skip the concurrency limiter and the
// request deadline (limited = false): they must answer precisely when
// the service is overloaded, and they never touch more than in-memory
// counters.
func (s *Server) route(name, pattern string, limited bool, h http.HandlerFunc) {
	st := &endpointStats{
		requests: s.m.requests.With(name),
		errors:   s.m.errors.With(name),
		shed:     s.m.shed.With(name),
		latency:  s.m.latency.With(name),
	}
	s.stats[name] = st
	s.mux.Handle(pattern, s.harden(name, st, limited, h))
}

// timeoutBody is the 503 body of a request that overran its deadline.
const timeoutBody = "request timed out\n"

// responseGate is the one writer harden puts in front of every handler.
// It records the response status for error accounting and, on limited
// routes, gates the response on the request deadline: a response not
// committed (no WriteHeader, no Write) before the deadline can no longer
// be — its writes fail with http.ErrHandlerTimeout, and once the handler
// returns, harden answers 503 in its place. It runs on the handler's own
// goroutine, so it needs no lock.
type responseGate struct {
	http.ResponseWriter
	deadline time.Time   // zero: no deadline (unlimited routes)
	preset   http.Header // headers set before the handler ran; kept on timeout
	status   int
	wrote    bool
}

// admit reports whether a write may reach the client, committing the
// response with code on its first write.
func (g *responseGate) admit(code int) bool {
	if g.wrote {
		return true
	}
	if g.expired() {
		return false
	}
	g.status, g.wrote = code, true
	return true
}

// expired reports whether the request deadline has passed. It compares
// clocks rather than polling the context, so a body read cut by the same
// deadline (SetReadDeadline) is always seen as a timeout, whichever of
// the netpoller and the context timer fires first.
func (g *responseGate) expired() bool {
	return !g.deadline.IsZero() && !time.Now().Before(g.deadline)
}

func (g *responseGate) WriteHeader(code int) {
	if g.admit(code) {
		g.ResponseWriter.WriteHeader(code)
	}
}

func (g *responseGate) Write(p []byte) (int, error) {
	if !g.admit(http.StatusOK) {
		return 0, http.ErrHandlerTimeout
	}
	return g.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the connection (Flush,
// SetReadDeadline, ...) from any routed handler.
func (g *responseGate) Unwrap() http.ResponseWriter { return g.ResponseWriter }

// timeout answers an uncommitted, overrun request: 503 with the fixed
// body, carrying only the headers set before the handler ran.
func (g *responseGate) timeout() {
	h := g.ResponseWriter.Header()
	clear(h)
	for k, v := range g.preset {
		h[k] = v
	}
	g.status, g.wrote = http.StatusServiceUnavailable, true
	g.ResponseWriter.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(g.ResponseWriter, timeoutBody) //nolint:errcheck // client gone; nothing to do
}

// harden wraps a handler with the request-hardening middleware: arrival
// counting, the trace-or-not decision, load shedding, the request
// deadline, latency observation, panic-to-500 recovery, and 5xx
// accounting. Everything runs on the request's own goroutine: a limited
// request holds its limiter slot until its handler really returns, so
// MaxInFlight bounds work, not just waiting clients.
func (s *Server) harden(name string, st *endpointStats, limited bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.requests.Inc()
		// The trace decision happens before shedding so the tail
		// keep-rules capture shed requests too — an overload incident is
		// exactly when traces matter. An unsampled request pays one
		// header lookup and one sampler draw here and nothing after
		// (nil-span no-op path; see BenchmarkTraceDecisionUnsampled).
		var tr *telemetry.Trace
		if tp := s.cfg.Traces; tp != nil {
			sc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
			if (ok && sc.Sampled) || tp.Sampler.Sample() {
				tr = telemetry.NewTraceWithIDs(name, tp.IDs)
				if ok {
					// Continue the caller's trace: same 128-bit ID, the
					// caller's span as our root's parent.
					tr.AdoptRemoteParent(sc)
				}
				r = r.WithContext(tr.Context(r.Context()))
				w.Header().Set("X-Trace-Id", tr.ID().String())
			}
		}
		gate := &responseGate{ResponseWriter: w}
		if tr != nil {
			// Registered before the accounting defer so it runs after
			// panic recovery has settled the response status.
			defer func() {
				status := gate.status
				if !gate.wrote {
					status = http.StatusOK
				}
				tr.End()
				s.cfg.Traces.Collector.Collect(name, status, tr)
			}()
		}
		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				st.shed.Inc()
				gate.Header().Set("Retry-After",
					strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
				http.Error(gate, "overloaded, retry later", http.StatusTooManyRequests)
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
			gate.deadline, _ = ctx.Deadline()
			if len(w.Header()) > 0 {
				gate.preset = w.Header().Clone()
			}
			if r.Body != nil && r.Body != http.NoBody {
				s.boundBodyRead(w, r, gate.deadline)
			}
		}
		start := s.cfg.now()
		defer func() {
			st.latency.Observe(s.cfg.now().Sub(start).Seconds())
			v := recover()
			if v == http.ErrAbortHandler {
				panic(v)
			}
			if v != nil {
				s.cfg.Logger.Error("panic serving request", "path", r.URL.Path, "panic", v)
			}
			if !gate.wrote {
				switch {
				case gate.expired():
					gate.timeout()
				case v != nil:
					http.Error(gate, "internal error", http.StatusInternalServerError)
				}
			}
			if v != nil || gate.status >= 500 {
				st.errors.Inc()
			}
		}()
		h.ServeHTTP(gate, r)
	})
}

// boundBodyRead cuts the request body's read off at the request
// deadline, so a client that stalls mid-body gets its 503 within the
// budget rather than pinning a limiter slot until the server's
// ReadTimeout. A server ReadTimeout no longer than the budget already
// bounds the read and is left alone: the connection deadline set here
// replaces the server's, and must never loosen it.
func (s *Server) boundBodyRead(w http.ResponseWriter, r *http.Request, deadline time.Time) {
	if srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server); srv != nil &&
		srv.ReadTimeout > 0 && srv.ReadTimeout <= s.cfg.RequestTimeout {
		return
	}
	// ErrNotSupported (no connection underneath, e.g. a recorder) leaves
	// nothing to bound.
	http.NewResponseController(w).SetReadDeadline(deadline) //nolint:errcheck
}

// build runs the configured builder with panic containment: a snapshot
// build that panics (a rotten feed tripping a parser bug) is a failed
// reload, not a dead daemon.
func (s *Server) build(ctx context.Context) (snap *Snapshot, err error) {
	defer func() {
		if v := recover(); v != nil {
			snap, err = nil, fmt.Errorf("serve: snapshot build panicked: %v", v)
		}
	}()
	return s.cfg.Build(ctx)
}

// Reload runs one reload cycle: build the next snapshot off the request
// path, retrying with exponential backoff, and atomically swap it in on
// success. On failure the previous snapshot keeps serving untouched and
// the failure is recorded for /readyz and /statusz; after BreakerAfter
// consecutive failed cycles the breaker opens and unforced reloads are
// refused with ErrBreakerOpen until a forced reload succeeds. Only one
// cycle runs at a time; a concurrent call returns ErrReloadInFlight.
func (s *Server) Reload(ctx context.Context, forced bool) error {
	if !s.reloadMu.TryLock() {
		return ErrReloadInFlight
	}
	defer s.reloadMu.Unlock()

	s.mu.Lock()
	open := s.breakerOpen
	s.mu.Unlock()
	if open && !forced {
		return ErrBreakerOpen
	}

	mode := ModeFull
	// Trace the cycle. When the caller's context already carries a span
	// (leaseinfer's -trace flag) the cycle nests under it; otherwise,
	// with a trace plane configured, the cycle gets an owned trace that
	// is always collected — the publisher half of every generation
	// lifecycle — and whose identity becomes the snapshot's provenance.
	var owned *telemetry.Trace
	var span *telemetry.Span
	if telemetry.SpanFrom(ctx) == nil && s.cfg.Traces != nil {
		owned = telemetry.NewTraceWithIDs("reload", s.cfg.Traces.IDs)
		span = owned.Root()
		ctx = owned.Context(ctx)
	} else {
		ctx, span = telemetry.StartSpan(ctx, "reload")
	}
	span.SetAttr("mode", mode)
	reloadOK := false
	defer func() {
		span.End()
		if owned != nil {
			status := http.StatusInternalServerError
			if reloadOK {
				status = http.StatusOK
			}
			s.cfg.Traces.Collector.CollectHot(telemetry.KindReload, "reload", status, owned)
		}
	}()

	start := s.cfg.now()
	var err error
	attempts := 0
	for attempt := 0; attempt < s.cfg.ReloadAttempts; attempt++ {
		if attempt > 0 {
			// Full-jittered exponential backoff, stretched to any
			// Retry-After hint the previous attempt's error carried
			// (e.g. a 429/503 from a replica's publisher): jitter
			// de-synchronizes the fleet, the hint keeps us from
			// returning before the publisher said it would be ready.
			d := s.cfg.jitter(s.cfg.ReloadBackoff << (attempt - 1))
			var hinted interface{ RetryAfter() time.Duration }
			if errors.As(err, &hinted) {
				if hint := hinted.RetryAfter(); d < hint {
					d = hint
				}
			}
			if serr := s.cfg.sleep(ctx, d); serr != nil {
				err = serr
				break
			}
		}
		attempts++
		var snap *Snapshot
		snap, err = s.build(ctx)
		if err == nil && snap == nil {
			err = errors.New("serve: builder returned nil snapshot")
		}
		if err == nil {
			if snap.BuiltAt.IsZero() {
				snap.BuiltAt = s.cfg.now()
			}
			// A restored snapshot (store generation, fetched body) ran
			// no inference; report what actually ran.
			if !snap.Inferred {
				mode = ModeSnapshot
				span.SetAttr("mode", mode)
			}
			// Stamp the snapshot's provenance — the traceparent of this
			// reload span — before the swap publishes the pointer, so
			// readers never observe a mutation. Snapshots that arrived
			// with provenance (a replica decode, a publisher's reopened
			// generation) keep the one their bytes carry.
			if snap.Provenance == "" {
				snap.Provenance = span.Traceparent()
			}
			if snap.genHeader == nil && snap.Generation != 0 {
				snap.genHeader = []string{strconv.FormatUint(snap.Generation, 10)}
			}
			if snap.Generation != 0 {
				span.SetAttr("generation", strconv.FormatUint(snap.Generation, 10))
			}
			_, swapSpan := telemetry.StartSpan(ctx, "swap")
			old := s.snap.Swap(snap)
			// Roll the load's per-source accounting onto the ingest_*
			// counter families so data loss is scrapeable per reload.
			diag.ObserveReports(s.cfg.Metrics, snap.Reports)
			swapSpan.End()
			// Drop the retired snapshot's serving reference. For a
			// view-backed (mmap) snapshot this is the drain point: the
			// mapping stays valid until the last in-flight request that
			// acquired it releases, and only then is the file unmapped.
			if old != nil && old != snap {
				old.Release()
			}
			if forced && mode == ModeFull {
				s.returnHeap()
			}
			reloadOK = true
			s.finishReload(ReloadEvent{
				At: start, OK: true, Forced: forced, Attempts: attempts,
				DurationMS: s.cfg.now().Sub(start).Milliseconds(),
				Mode:       mode,
			})
			s.cfg.Logger.Info("reload ok",
				"inferences", snap.NumInferences(), "attempt", attempts,
				"forced", forced, "mode", mode)
			return nil
		}
		s.cfg.Logger.Warn("reload attempt failed", "attempt", attempts, "mode", mode, "err", err)
		if ctx.Err() != nil {
			break
		}
	}
	s.finishReload(ReloadEvent{
		At: start, OK: false, Forced: forced, Attempts: attempts,
		DurationMS: s.cfg.now().Sub(start).Milliseconds(),
		Mode:       mode,
		Error:      err.Error(),
	})
	return err
}

// returnHeap hands the garbage of a forced full rebuild back to the OS.
// Such a reload (the boot load, SIGHUP) parses a whole dataset and runs
// the whole inference, leaving a heap several times the serving state;
// without a timer nothing allocates afterwards to trigger the next GC,
// so that garbage would stay resident for the life of the process.
// debug.FreeOSMemory runs a full GC and releases the freed spans. It
// runs on its own goroutine, which ends when the release does and which
// nothing waits for, so neither the first listen nor the reload waits
// on it. Concurrent requests coalesce: a request while one runs
// schedules exactly one more run, which also covers the later reload's
// garbage. Timer reloads never call this: the next tick reuses the same
// heap, and snapshot-mode reloads (a decoded or mapped generation)
// build no dataset to free.
func (s *Server) returnHeap() {
	for {
		switch s.heapReturn.Load() {
		case 0:
			if s.heapReturn.CompareAndSwap(0, 1) {
				go s.runHeapReturn()
				return
			}
		case 1:
			if s.heapReturn.CompareAndSwap(1, 2) {
				return
			}
		default:
			return // a rerun is already pending
		}
	}
}

func (s *Server) runHeapReturn() {
	for {
		s.cfg.freeOSMemory()
		if s.heapReturn.CompareAndSwap(1, 0) {
			return
		}
		s.heapReturn.Store(1) // was 2: run once more for the pending request
	}
}

// finishReload records a completed cycle and drives the breaker.
func (s *Server) finishReload(ev ReloadEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reloads++
	s.m.reloadCycles.Inc()
	if ev.Mode != "" {
		s.m.reloadByMode.With(ev.Mode).Inc()
	}
	s.m.reloadDuration.Observe(float64(ev.DurationMS) / 1e3)
	if ev.OK {
		s.consecFails = 0
		s.breakerOpen = false
	} else {
		s.m.reloadFailures.Inc()
		s.consecFails++
		if s.consecFails >= s.cfg.BreakerAfter && !s.breakerOpen {
			s.breakerOpen = true
			s.cfg.Logger.Error("reload breaker opened", "consecutive_failures", s.consecFails)
		}
	}
	s.m.consecFails.Set(float64(s.consecFails))
	if s.breakerOpen {
		s.m.breakerGauge.Set(1)
	} else {
		s.m.breakerGauge.Set(0)
	}
	s.history = append(s.history, ev)
	if len(s.history) > historyCap {
		s.history = s.history[len(s.history)-historyCap:]
	}
}

// LastReload returns a copy of the most recent reload event, or nil
// before the first reload completes.
func (s *Server) LastReload() *ReloadEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) == 0 {
		return nil
	}
	ev := s.history[len(s.history)-1]
	return &ev
}

// ReloadLoop reloads on a timer until the context is cancelled. Timer
// reloads are unforced: once the breaker opens they are skipped until an
// operator forces a reload (SIGHUP in cmd/leased). No-op when
// ReloadEvery is zero.
func (s *Server) ReloadLoop(ctx context.Context) {
	if s.cfg.ReloadEvery <= 0 {
		return
	}
	t := time.NewTicker(s.cfg.ReloadEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			switch err := s.Reload(ctx, false); err {
			case nil, ErrReloadInFlight:
			case ErrBreakerOpen:
				s.cfg.Logger.Warn("timed reload skipped", "err", err)
			default:
			}
		}
	}
}

// GenerationHeader is the response header naming the snapshot
// generation that answered a data request. It is stamped from the same
// atomic snapshot-pointer read that produces the body, so clients (the
// chaos harness's byte-identity invariant) can group responses by
// generation without a second, racy status round trip.
const GenerationHeader = "X-Snapshot-Generation"

// setGenerationHeader stamps the answering snapshot's generation from
// the value Reload prepared at swap time. Absent when the process never
// assigns generations (no snapshot store).
func setGenerationHeader(w http.ResponseWriter, snap *Snapshot) {
	if snap.genHeader != nil {
		w.Header()[GenerationHeader] = snap.genHeader
	}
}

// writeJSON renders one response body of the cold endpoints (status,
// health, load report); the lookup endpoints use the append renderer
// (render.go), which reproduces this encoder's bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// handleLookup answers prefix, address, and ASN queries:
//
//	/lookup?prefix=198.51.100.0/24  exact leaf-prefix classification
//	/lookup?ip=198.51.100.7         longest-prefix-match classification
//	/lookup?asn=64500               every leaf originated by the ASN
//
// The first non-empty parameter in that order wins; each is read as
// url.Values.Get would, without building the query map.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	if snap == nil {
		http.Error(w, ErrNoSnapshot.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Release()
	setGenerationHeader(w, snap)
	ctx := r.Context()
	_, decSpan := telemetry.StartSpan(ctx, "decode")
	var (
		kind, arg string
		p         netutil.Prefix
		a         netutil.Addr
		asn       uint64
		err       error
	)
	raw := r.URL.RawQuery
	if kind, arg = "prefix", queryGet(raw, "prefix"); arg != "" {
		p, err = netutil.ParsePrefix(arg)
	} else if kind, arg = "ip", queryGet(raw, "ip"); arg != "" {
		a, err = netutil.ParseAddr(arg)
	} else if kind, arg = "asn", queryGet(raw, "asn"); arg != "" {
		if asn, err = strconv.ParseUint(strings.TrimPrefix(arg, "AS"), 10, 32); err != nil {
			err = errors.New("invalid asn: " + arg)
		}
	} else {
		err = errors.New("missing query: one of prefix=, ip=, asn=")
	}
	decSpan.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, lpmSpan := telemetry.StartSpan(ctx, "lookup")
	var (
		inf  *core.Inference
		infs []*core.Inference
	)
	switch kind {
	case "prefix", "ip":
		scratch := getScratch()
		defer putScratch(scratch)
		var found bool
		if kind == "prefix" {
			found = snap.LookupPrefixInto(p, scratch)
		} else {
			found = snap.LookupAddrInto(a, scratch)
		}
		if found {
			inf = scratch
		}
	default:
		infs = snap.LookupASN(uint32(asn))
	}
	lpmSpan.End()
	_, renderSpan := telemetry.StartSpan(ctx, "render")
	renderLookup(w, kind, arg, snap.BuiltAt, inf, infs)
	renderSpan.End()
}

// MaxBatchIPs caps one /lookup/batch request. At the LPM's per-address
// cost the cap keeps worst-case handling well under the request
// timeout while still letting clients sweep whole /18s per call.
const MaxBatchIPs = 10000

// batchLookupRequest is the /lookup/batch request body.
type batchLookupRequest struct {
	IPs []string `json:"ips"`
}

// handleLookupBatch answers POST /lookup/batch: a JSON array of
// addresses classified in one round trip against one snapshot. Every
// address in the batch reads the same snapshot pointer, so a reload
// landing mid-request can never split the batch across generations. A
// malformed address reports its parse error in place instead of failing
// the whole batch.
func (s *Server) handleLookupBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	snap := s.acquireSnap()
	if snap == nil {
		http.Error(w, ErrNoSnapshot.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Release()
	setGenerationHeader(w, snap)
	ctx := r.Context()
	_, decSpan := telemetry.StartSpan(ctx, "decode")
	var req batchLookupRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		decSpan.End()
		http.Error(w, "invalid body: "+err.Error(), http.StatusBadRequest)
		return
	}
	decSpan.AddRecords(int64(len(req.IPs)))
	decSpan.End()
	if len(req.IPs) == 0 {
		http.Error(w, "empty batch: body must carry {\"ips\": [...]}", http.StatusBadRequest)
		return
	}
	if len(req.IPs) > MaxBatchIPs {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.IPs), MaxBatchIPs),
			http.StatusRequestEntityTooLarge)
		return
	}
	_, lpmSpan := telemetry.StartSpan(ctx, "lookup")
	// A malformed address keeps its slot (as address 0) so the batched
	// descent stays one call; its parse error overrides the match.
	addrs := make([]netutil.Addr, len(req.IPs))
	errs := make([]error, len(req.IPs))
	for i, raw := range req.IPs {
		addrs[i], errs[i] = netutil.ParseAddr(raw)
	}
	hits := snap.LookupAddrs(make([]int32, 0, len(addrs)), addrs)
	lpmSpan.AddRecords(int64(len(req.IPs)))
	lpmSpan.End()
	_, renderSpan := telemetry.StartSpan(ctx, "render")
	renderBatch(w, snap, req.IPs, hits, errs)
	renderSpan.End()
}

// handleTable1 serves the snapshot's pre-rendered Table-1 summary.
func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	if snap == nil {
		http.Error(w, ErrNoSnapshot.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Release()
	setGenerationHeader(w, snap)
	_, renderSpan := telemetry.StartSpan(r.Context(), "render")
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	w.Write(snap.Table1()) //nolint:errcheck
	renderSpan.AddBytes(int64(len(snap.Table1())))
	renderSpan.End()
}

// loadReportResponse is the /loadreport JSON shape.
type loadReportResponse struct {
	BuiltAt         time.Time        `json:"built_at"`
	Dir             string           `json:"dir,omitempty"`
	Strict          bool             `json:"strict"`
	Reports         []LoadReportView `json:"reports"`
	SkippedAnalyses []string         `json:"skipped_analyses,omitempty"`
}

// handleLoadReport serves the snapshot's per-source load accounting.
func (s *Server) handleLoadReport(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	if snap == nil {
		http.Error(w, ErrNoSnapshot.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Release()
	setGenerationHeader(w, snap)
	writeJSON(w, http.StatusOK, loadReportResponse{
		BuiltAt:         snap.BuiltAt,
		Dir:             snap.Dir,
		Strict:          snap.Strict,
		Reports:         snap.ReportViews(),
		SkippedAnalyses: snap.SkippedAnalyses,
	})
}

// handleHealthz is liveness: the process is up and the handler chain
// works. It reports ok even while degraded — liveness restarts must not
// be triggered by a rotten upstream feed — but carries the degradation
// flag so probes can log it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fails := s.consecFails
	open := s.breakerOpen
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":               "ok",
		"uptime_seconds":       s.cfg.now().Sub(s.started).Seconds(),
		"have_snapshot":        s.snap.Load() != nil,
		"degraded":             fails > 0 || open,
		"consecutive_failures": fails,
		"reload_breaker_open":  open,
	})
}

// handleReadyz is readiness: 200 only with a snapshot loaded and the
// reload pipeline healthy. A daemon serving a stale snapshot after
// failed reloads answers 503 "degraded" — still serving, but signalling
// that traffic should prefer healthier replicas — and one with no
// snapshot at all answers 503 "unready".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	s.mu.Lock()
	fails := s.consecFails
	open := s.breakerOpen
	s.mu.Unlock()
	body := map[string]any{
		"consecutive_failures": fails,
		"reload_breaker_open":  open,
	}
	if s.cfg.Replication != nil {
		if rs := s.cfg.Replication(); rs != nil {
			body["replication_generation_lag"] = rs.Lag
			body["replication_serving_generation"] = rs.ServingGeneration
		}
	}
	switch {
	case snap == nil:
		body["status"] = "unready"
		body["reason"] = "no snapshot loaded"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case fails > 0 || open:
		body["status"] = "degraded"
		body["reason"] = fmt.Sprintf("serving stale snapshot built %s; %d consecutive reload failures",
			snap.BuiltAt.Format(time.RFC3339), fails)
		body["snapshot_age_seconds"] = s.cfg.now().Sub(snap.BuiltAt).Seconds()
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		body["status"] = "ready"
		body["snapshot_age_seconds"] = s.cfg.now().Sub(snap.BuiltAt).Seconds()
		writeJSON(w, http.StatusOK, body)
	}
}

// ReplicationStatus is a replica daemon's view of its snapshot source,
// reported through the Config.Replication hook.
type ReplicationStatus struct {
	// Source is the publisher endpoint or store directory snapshots come
	// from.
	Source string `json:"source"`
	// ServingGeneration is the snapshot generation currently serving.
	ServingGeneration uint64 `json:"serving_generation"`
	// PublisherGeneration is the newest generation the publisher
	// reported; 0 until the first successful probe or fetch.
	PublisherGeneration uint64 `json:"publisher_generation"`
	// Lag is PublisherGeneration - ServingGeneration, clamped at 0: how
	// many generations behind the publisher this replica serves.
	Lag uint64 `json:"generation_lag"`
	// LastContact is when the publisher last answered a probe or fetch.
	LastContact time.Time `json:"last_contact,omitempty"`
	// LastError is the most recent fetch/probe failure, cleared by the
	// next success.
	LastError string `json:"last_error,omitempty"`
}

// Degraded reports the reload pipeline's failure state: consecutive
// failed reload cycles and whether the reload breaker is open. The
// replica poll loop reads it to decide when a recovered publisher
// warrants a forced (breaker-bypassing) reload.
func (s *Server) Degraded() (consecutiveFailures int, breakerOpen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.consecFails, s.breakerOpen
}

// statuszResponse is the /statusz JSON shape.
type statuszResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Snapshot      *statuszSnapshot         `json:"snapshot,omitempty"`
	Reload        statuszReload            `json:"reload"`
	Replication   *ReplicationStatus       `json:"replication,omitempty"`
	Endpoints     map[string]statuszCounts `json:"endpoints"`
}

type statuszSnapshot struct {
	// Generation and BuiltAt are read from the same atomic
	// snapshot-pointer load, so they can never disagree about which
	// snapshot is serving (the race DESIGN.md §12 used to document).
	Generation uint64    `json:"generation"`
	BuiltAt    time.Time `json:"built_at"`
	// Provenance is the traceparent of the reload that built the
	// serving snapshot — the join key into /debug/traces.
	Provenance      string   `json:"provenance,omitempty"`
	AgeSeconds      float64  `json:"age_seconds"`
	Dir             string   `json:"dir,omitempty"`
	Strict          bool     `json:"strict"`
	Inferences      int      `json:"inferences"`
	Leased          int      `json:"leased"`
	RoutedPrefixes  int      `json:"routed_prefixes"`
	LeasedShare     float64  `json:"leased_share_of_bgp"`
	SkippedAnalyses []string `json:"skipped_analyses,omitempty"`
	// LoadMode is how the serving snapshot's indexes were materialized:
	// built in-process, heap-decoded from snapshot bytes, or views over
	// a memory-mapped snapshot file.
	LoadMode string `json:"load_mode,omitempty"`
}

type statuszReload struct {
	Cycles              int           `json:"cycles"`
	ConsecutiveFailures int           `json:"consecutive_failures"`
	BreakerOpen         bool          `json:"breaker_open"`
	History             []ReloadEvent `json:"history"`
}

type statuszCounts struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Shed     int64 `json:"shed"`
}

// handleStatusz serves the self-observation page: snapshot age and
// shape, reload history and breaker state, per-endpoint counters.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.now()
	resp := statuszResponse{
		UptimeSeconds: now.Sub(s.started).Seconds(),
		Endpoints:     make(map[string]statuszCounts, len(s.stats)),
	}
	if snap := s.acquireSnap(); snap != nil {
		resp.Snapshot = &statuszSnapshot{
			Generation:      snap.Generation,
			BuiltAt:         snap.BuiltAt,
			Provenance:      snap.Provenance,
			AgeSeconds:      now.Sub(snap.BuiltAt).Seconds(),
			Dir:             snap.Dir,
			Strict:          snap.Strict,
			Inferences:      snap.NumInferences(),
			Leased:          snap.TotalLeased(),
			RoutedPrefixes:  snap.TotalBGPPrefixes(),
			LeasedShare:     snap.LeasedShareOfBGP(),
			SkippedAnalyses: snap.SkippedAnalyses,
			LoadMode:        snap.LoadMode(),
		}
		snap.Release()
	}
	if s.cfg.Replication != nil {
		resp.Replication = s.cfg.Replication()
	}
	s.mu.Lock()
	resp.Reload = statuszReload{
		Cycles:              s.reloads,
		ConsecutiveFailures: s.consecFails,
		BreakerOpen:         s.breakerOpen,
		History:             append([]ReloadEvent(nil), s.history...),
	}
	s.mu.Unlock()
	names := make([]string, 0, len(s.stats))
	for name := range s.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Read the same registry children /metrics scrapes, so the two
		// views can never disagree.
		st := s.stats[name]
		resp.Endpoints[name] = statuszCounts{
			Requests: int64(st.requests.Value()),
			Errors:   int64(st.errors.Value()),
			Shed:     int64(st.shed.Value()),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
