package daemon

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
	"ipleasing/internal/telemetry"
)

// snapshots is the daemon's persistence and replication layer, built on
// internal/snapstore. Every daemon has a store — SnapshotDir, or a
// private temporary directory removed when Run returns — and every
// generation it serves is a store file opened by the same code (open,
// then serveOpened), so publisher and replica answer from the same
// bytes through the same path:
//
//   - Publisher (no SnapshotURL): every reload that builds mints the
//     next generation, encodes it once, durably publishes it to the
//     store and serves it opened from the published file, so
//     /snapshot/current and the answers come from one set of bytes;
//     with SnapshotDir, cold start opens the newest valid on-disk
//     generation instead of re-running inference.
//   - Replica (SnapshotURL): the reload builder fetches encoded
//     snapshots from an upstream publisher instead of loading a
//     dataset, streams each body into the store and opens it like a
//     publisher's; a poll loop probes for new generations and drives
//     reloads through the serve.Server machinery, so fetch failures
//     degrade exactly like dataset failures (serve last-good, flip
//     /readyz, open the breaker). With SnapshotDir, a cold start with
//     the publisher down serves the newest fetched generation.
type snapshots struct {
	cfg     Config
	log     *telemetry.Logger
	metrics *snapstore.Metrics

	store   *snapstore.Store
	private string               // the store's directory when Run made it, else ""
	pub     *snapstore.Publisher // /snapshot/current state
	fetcher *snapstore.Fetcher   // nil without SnapshotURL

	// nextGen numbers generations this daemon publishes; seeded from
	// the store's newest on-disk generation so restarts stay monotonic.
	nextGen atomic.Uint64

	// cold holds the snapshot recovered from disk before the server
	// starts; the first Build consumes it.
	mu   sync.Mutex
	cold *serve.Snapshot

	// Replication state for /statusz, /readyz, and the lag gauge.
	servingGen  atomic.Uint64
	upstreamGen atomic.Uint64
	lastContact atomic.Int64 // unixnano, 0 = never
	lastErr     atomic.Pointer[string]

	// backoffUntil is the unixnano deadline a publisher Retry-After hint
	// set: poll ticks before it are skipped. The fetcher caps hints at
	// the poll interval, so a lying publisher can delay at most one
	// tick.
	backoffUntil atomic.Int64
}

// newSnapshots prepares the snapshot layer: opens the store, recovers
// the newest valid on-disk generation (if any), and seeds the
// generation counter. Without SnapshotDir the store is a fresh private
// directory that keeps one generation, since nothing can cold-start
// from it; the caller must close what newSnapshots returns.
func newSnapshots(cfg Config, log *telemetry.Logger, reg *telemetry.Registry) (_ *snapshots, err error) {
	d := &snapshots{
		cfg:     cfg,
		log:     log,
		metrics: snapstore.NewMetrics(reg),
		pub:     snapstore.NewPublisher(),
	}
	dir, keep := cfg.SnapshotDir, cfg.SnapshotKeep
	if dir == "" {
		if dir, err = os.MkdirTemp("", "leased-snapshots-*"); err != nil {
			return nil, fmt.Errorf("private snapshot store: %w", err)
		}
		d.private, keep = dir, 1
		defer func() {
			if err != nil {
				d.close()
			}
		}()
	}
	st, err := snapstore.Open(dir, snapstore.StoreOptions{
		Keep:    keep,
		Logger:  log,
		Metrics: d.metrics,
	})
	if err != nil {
		return nil, err
	}
	d.store = st
	if gen, ok := st.NewestGeneration(); ok {
		d.nextGen.Store(gen)
	}
	ld, err := st.LoadCurrentOpen(snapstore.OpenOptions{})
	switch {
	case err == nil:
		if d.cold, err = d.serveOpened(ld); err != nil {
			return nil, err
		}
		log.Info("cold start from snapshot store", "dir", dir,
			"generation", ld.Gen, "inferences", ld.Snap.NumInferences(), "load_mode", ld.Snap.LoadMode())
	case errors.Is(err, snapstore.ErrNoSnapshot):
		log.Info("snapshot store empty, nothing to cold-start from", "dir", dir)
	default:
		return nil, err
	}
	if cfg.SnapshotURL != "" {
		d.fetcher = snapstore.NewFetcher(cfg.SnapshotURL, snapstore.FetcherOptions{
			Logger:  log,
			Metrics: d.metrics,
			// Honored Retry-After hints never exceed one poll interval: a
			// publisher asking for an hour must not stall replication.
			RetryAfterCap: cfg.Poll,
		})
	}
	return d, nil
}

// close removes a private store; a SnapshotDir outlives the process.
// Mappings of its files stay valid after the unlink.
func (d *snapshots) close() {
	if d.private != "" {
		if err := os.RemoveAll(d.private); err != nil {
			d.log.Warn("private snapshot store not removed", "dir", d.private, "err", err)
		}
	}
}

// replica reports whether the daemon serves fetched snapshots instead
// of loading a dataset.
func (d *snapshots) replica() bool { return d.fetcher != nil }

// serveOpened is the tail of every generation a daemon serves — cold
// start, publish and fetch alike: the opened generation's own bytes
// back /snapshot/current (straight from the mapping when there is one,
// never a second copy), and it becomes the serving generation. On
// failure the snapshot is released and nothing changes.
func (d *snapshots) serveOpened(ld *snapstore.Loaded) (*serve.Snapshot, error) {
	if err := d.pub.Publish(ld); err != nil {
		ld.Snap.Release()
		return nil, err
	}
	d.servingGen.Store(ld.Gen)
	return ld.Snap, nil
}

// open opens the store's generation gen for serving (mapped where the
// platform allows) and serves it through serveOpened.
func (d *snapshots) open(ctx context.Context, gen uint64) (*serve.Snapshot, error) {
	_, span := telemetry.StartSpan(ctx, "open")
	ld, err := snapstore.OpenFile(d.store.Path(gen), snapstore.OpenOptions{Logger: d.log, Metrics: d.metrics})
	span.End()
	if err != nil {
		return nil, err
	}
	return d.serveOpened(ld)
}

// takeCold consumes the snapshot recovered from disk, once.
func (d *snapshots) takeCold() *serve.Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := d.cold
	d.cold = nil
	return snap
}

// wrapBuild layers cold-start recovery and publication over the
// dataset build: the first reload serves the on-disk generation
// recovered at startup — O(bytes), no dataset parse, no inference —
// and every later reload builds fresh and publishes what it built.
func (d *snapshots) wrapBuild(build func(ctx context.Context) (*serve.Snapshot, error)) func(ctx context.Context) (*serve.Snapshot, error) {
	return func(ctx context.Context) (*serve.Snapshot, error) {
		if snap := d.takeCold(); snap != nil {
			return snap, nil
		}
		snap, err := build(ctx)
		if err != nil {
			return nil, err
		}
		return d.publish(ctx, snap)
	}
}

// publish turns a freshly built snapshot into the generation this
// publisher serves: mint the next generation number, stamp the build
// time and the reload's traceparent, encode once, durably publish to
// the store, then open the published file. The publisher answers from
// the opened generation — the same bytes and the same open path as
// every replica — and the built snapshot is garbage once this returns.
// A failed persist or open fails the reload attempt (retry, backoff,
// breaker) with the last good generation still serving, so no
// generation number is ever served without its file on disk.
func (d *snapshots) publish(ctx context.Context, built *serve.Snapshot) (*serve.Snapshot, error) {
	gen := d.nextGen.Add(1)
	built.BuiltAt = time.Now()
	built.Provenance = telemetry.SpanFrom(ctx).Traceparent()
	_, span := telemetry.StartSpan(ctx, "publish")
	span.SetAttr("generation", strconv.FormatUint(gen, 10))
	data := snapstore.Encode(built, gen)
	span.AddBytes(int64(len(data)))
	err := d.store.PublishEncoded(data)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		return nil, err
	}
	snap, err := d.open(ctx, gen)
	if err != nil {
		return nil, err
	}
	snap.Inferred = true
	return snap, nil
}

// buildFromFetch is the replica's serve.Config.Build: fetch the
// publisher's current generation and serve it (fetchOpen). A failure
// is returned to the serve retry/backoff/breaker machinery; the cached
// cold snapshot (if any) answers only while no fetch has succeeded — a
// replica that has never reached its publisher still starts from its
// cache.
func (d *snapshots) buildFromFetch(ctx context.Context) (*serve.Snapshot, error) {
	snap, err := d.fetchOpen(ctx)
	if errors.Is(err, snapstore.ErrUnchanged) {
		// A 304 can only race a forced reload that lost to a concurrent
		// etag update; re-fetch unconditionally rather than fail it.
		d.fetcher.Invalidate()
		snap, err = d.fetchOpen(ctx)
	}
	if err != nil {
		d.noteError(err)
		if cold := d.takeCold(); cold != nil {
			d.log.Warn("fetch failed, serving cached snapshot",
				"url", d.cfg.SnapshotURL, "generation", d.servingGen.Load(), "err", err)
			return cold, nil
		}
		return nil, err
	}
	// Link this reload to the publisher's: the snapshot carries the
	// traceparent of the publisher reload that built the generation,
	// and adopting it re-identifies the replica's reload trace (fetch,
	// open, the swap to come) as part of that generation's lifecycle
	// trace. On failure paths the trace keeps its local ID, which the
	// fetch hop already emitted to the publisher — so the two halves of
	// an error join on that ID instead.
	if sc, ok := telemetry.ParseTraceparent(snap.Provenance); ok {
		telemetry.AdoptRemoteParent(ctx, sc)
	}
	d.noteContact(snap.Generation)
	d.dropCold()
	d.observeLag()
	return snap, nil
}

// fetchOpen pulls the publisher's current generation and serves it.
// The body streams straight to a temp file in the store directory
// (never buffered on the heap), is adopted as a generation file and
// opened like a publisher's own — mapped, so a reload's transient
// memory is one copy buffer whatever the snapshot size, and the
// fetched bytes sit in the page cache once, shared by the mapping and
// /snapshot/current.
func (d *snapshots) fetchOpen(ctx context.Context) (*serve.Snapshot, error) {
	fetchCtx, fetchSpan := telemetry.StartSpan(ctx, "fetch")
	tmpPath, gen, err := d.fetcher.FetchToFile(fetchCtx, d.store.Dir())
	if err == nil {
		if fi, serr := os.Stat(tmpPath); serr == nil {
			fetchSpan.AddBytes(fi.Size())
		}
	}
	fetchSpan.End()
	if err != nil {
		return nil, err
	}
	_, persistSpan := telemetry.StartSpan(ctx, "persist")
	err = d.store.AdoptFile(tmpPath, gen)
	persistSpan.End()
	if err != nil {
		return nil, err
	}
	// The whole-file CRC passed during the stream, so an open failure is
	// local damage (torn write, disk fault); the generation file stays
	// for post-mortem and LoadCurrentOpen skips it.
	return d.open(ctx, gen)
}

// dropCold discards a cached cold snapshot a live fetch has
// superseded, releasing its backing (the creation reference of a
// mapping that will now never serve).
func (d *snapshots) dropCold() {
	d.mu.Lock()
	snap := d.cold
	d.cold = nil
	d.mu.Unlock()
	if snap != nil {
		snap.Release()
	}
}

func (d *snapshots) noteContact(upstreamGen uint64) {
	d.upstreamGen.Store(upstreamGen)
	d.lastContact.Store(time.Now().UnixNano())
	d.lastErr.Store(nil)
}

func (d *snapshots) noteError(err error) {
	if errors.Is(err, snapstore.ErrUnchanged) {
		return
	}
	msg := err.Error()
	d.lastErr.Store(&msg)
	// A Retry-After hint on the failure (publisher answering 429/503
	// with an explicit back-off) suppresses poll ticks until it
	// expires; the fetcher already capped it at the poll interval.
	var ra *snapstore.RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		d.backoffUntil.Store(time.Now().Add(ra.After).UnixNano())
		d.log.Warn("publisher asked to back off", "retry_after", ra.After, "err", err)
	}
}

// observeLag refreshes the replica_generation_lag gauge.
func (d *snapshots) observeLag() {
	up, cur := d.upstreamGen.Load(), d.servingGen.Load()
	if up > cur {
		d.metrics.ObserveLag(float64(up - cur))
	} else {
		d.metrics.ObserveLag(0)
	}
}

// replicationStatus is the serve.Config.Replication hook.
func (d *snapshots) replicationStatus() *serve.ReplicationStatus {
	source := d.cfg.SnapshotURL
	if source == "" {
		source = d.store.Dir()
	}
	rs := &serve.ReplicationStatus{
		Source:              source,
		ServingGeneration:   d.servingGen.Load(),
		PublisherGeneration: d.upstreamGen.Load(),
	}
	if rs.PublisherGeneration > rs.ServingGeneration {
		rs.Lag = rs.PublisherGeneration - rs.ServingGeneration
	}
	if ns := d.lastContact.Load(); ns != 0 {
		rs.LastContact = time.Unix(0, ns)
	}
	if msg := d.lastErr.Load(); msg != nil {
		rs.LastError = *msg
	}
	return rs
}

// pollLoop is the replica's reload driver, replacing the timer reload
// loop: each tick probes the publisher (HEAD, no body) and only drives
// a reload when there is a new generation to fetch — or when the probe
// itself fails, so repeated publisher outages flow into the serve
// breaker and /readyz degradation instead of passing silently. When the
// breaker is open but a probe shows the publisher back with a new
// generation, the reload is forced: the half-open recovery path that
// lets a replica heal without an operator SIGHUP.
func (d *snapshots) pollLoop(ctx context.Context, s *serve.Server) {
	t := time.NewTicker(d.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if until := d.backoffUntil.Load(); until != 0 && time.Now().UnixNano() < until {
				continue // the publisher asked for room; honor it
			}
			d.pollTick(ctx, s)
		}
	}
}

func (d *snapshots) pollTick(ctx context.Context, s *serve.Server) {
	upstreamGen, err := d.fetcher.Probe(ctx)
	consecFails, breakerOpen := s.Degraded()
	if err != nil {
		d.noteError(err)
		d.log.Warn("publisher probe failed", "url", d.cfg.SnapshotURL, "err", err)
		if !breakerOpen {
			// Drive a reload so the failure is accounted: retries, then
			// consecutive-failure tracking, then the breaker.
			if rerr := s.Reload(ctx, false); rerr != nil {
				d.log.Warn("replica reload failed", "err", rerr)
			}
		}
		return
	}
	d.noteContact(upstreamGen)
	d.observeLag()
	if upstreamGen == d.servingGen.Load() {
		if consecFails > 0 || breakerOpen {
			// The publisher is back but hasn't minted a new generation
			// (say, it restarted from its own store). Without a reload the
			// failure counters never clear and /readyz reports degraded
			// forever, so force one refetch of the current generation —
			// buildFromFetch drops the conditional-GET state on the 304 and
			// transfers the body, and the successful swap resets the
			// breaker.
			if err := s.Reload(ctx, true); err != nil {
				d.log.Warn("replica recovery reload failed", "err", err)
			}
		}
		return // up to date: the probe was the whole poll
	}
	// Forced iff the breaker is open: a healthy publisher with a new
	// generation is the recovery signal that half-opens it.
	if err := s.Reload(ctx, breakerOpen); err != nil {
		d.log.Warn("replica reload failed", "generation", upstreamGen, "err", err)
	}
	d.observeLag()
}

// forceRefresh implements SIGHUP for replicas: drop the conditional-GET
// state so the next fetch transfers the body even if the generation is
// unchanged.
func (d *snapshots) forceRefresh() {
	if d.replica() {
		d.fetcher.Invalidate()
	}
}
