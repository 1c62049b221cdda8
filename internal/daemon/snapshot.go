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
// internal/snapstore. One struct covers both roles:
//
//   - Publisher (SnapshotDir, no SnapshotURL): every successful
//     reload is encoded once, durably published to the store, and
//     exposed on /snapshot/current; cold start decodes the newest valid
//     on-disk generation instead of re-running inference.
//   - Replica (SnapshotURL): the reload builder fetches encoded
//     snapshots from an upstream publisher instead of loading a
//     dataset; a poll loop probes for new generations and drives
//     reloads through the serve.Server machinery, so fetch failures
//     degrade exactly like dataset failures (serve last-good, flip
//     /readyz, open the breaker). With SnapshotDir too, fetched
//     generations are cached on disk and a cold start with the
//     publisher down serves the cache.
type snapshots struct {
	cfg     Config
	log     *telemetry.Logger
	metrics *snapstore.Metrics

	store   *snapstore.Store     // nil without SnapshotDir
	pub     *snapstore.Publisher // /snapshot/current state, always set
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
// generation counter. Returns nil when neither SnapshotDir nor
// SnapshotURL is set.
func newSnapshots(cfg Config, log *telemetry.Logger, reg *telemetry.Registry) (*snapshots, error) {
	if cfg.SnapshotDir == "" && cfg.SnapshotURL == "" {
		return nil, nil
	}
	d := &snapshots{
		cfg:     cfg,
		log:     log,
		metrics: snapstore.NewMetrics(reg),
		pub:     snapstore.NewPublisher(),
	}
	if cfg.SnapshotDir != "" {
		st, err := snapstore.Open(cfg.SnapshotDir, snapstore.StoreOptions{
			Keep:    cfg.SnapshotKeep,
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
			d.cold = ld.Snap
			d.servingGen.Store(ld.Gen)
			// The publisher serves /snapshot/current straight from the
			// mapping (its own reference) instead of a heap copy.
			if perr := d.pub.SetMapped(ld.Data, backingOf(ld)); perr != nil {
				log.Warn("publishing cold snapshot failed", "generation", ld.Gen, "err", perr)
			}
			log.Info("cold start from snapshot store", "dir", cfg.SnapshotDir,
				"generation", ld.Gen, "inferences", ld.Snap.NumInferences(), "load_mode", ld.Snap.LoadMode())
		case errors.Is(err, snapstore.ErrNoSnapshot):
			log.Info("snapshot store empty, first load will run inference", "dir", cfg.SnapshotDir)
		default:
			return nil, err
		}
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

// replica reports whether the daemon serves fetched snapshots instead
// of loading a dataset.
func (d *snapshots) replica() bool { return d != nil && d.fetcher != nil }

// backingOf converts a Loaded's concrete *Mapped to the serve.Backing
// interface without producing a typed-nil interface for heap loads.
func backingOf(ld *snapstore.Loaded) serve.Backing {
	if ld.Backing != nil {
		return ld.Backing
	}
	return nil
}

// takeCold consumes the snapshot recovered from disk, once.
func (d *snapshots) takeCold() *serve.Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := d.cold
	d.cold = nil
	return snap
}

// stamp assigns a freshly built snapshot its generation number at build
// time. Stamping here — instead of minting in onSwap — means the
// serving snapshot pointer, /statusz, and the identity header all carry
// the generation before the swap publishes it, so they can never
// disagree. Snapshots that already carry one (decoded from the store or
// the wire) keep it.
func (d *snapshots) stamp(snap *serve.Snapshot) *serve.Snapshot {
	if snap != nil && snap.Generation == 0 {
		snap.Generation = d.nextGen.Add(1)
	}
	return snap
}

// wrapBuild layers cold-start recovery and generation stamping over the
// dataset build: the first reload serves the decoded on-disk generation
// — O(bytes), no dataset parse, no inference — and every later reload
// builds fresh.
func (d *snapshots) wrapBuild(build func(ctx context.Context) (*serve.Snapshot, error)) func(ctx context.Context) (*serve.Snapshot, error) {
	if d == nil {
		return build
	}
	return func(ctx context.Context) (*serve.Snapshot, error) {
		if snap := d.takeCold(); snap != nil {
			return snap, nil
		}
		snap, err := build(ctx)
		if err != nil {
			return nil, err
		}
		return d.stamp(snap), nil
	}
}

// buildFromFetch is the replica's serve.Config.Build: pull the current
// encoded snapshot from the upstream publisher, decode (which
// re-validates every checksum), persist it to the local cache when one
// is configured, and republish it on this daemon's own
// /snapshot/current so replicas chain. A fetch or decode failure is
// returned to the serve retry/backoff/breaker machinery; the cached
// cold snapshot (if any) answers only when the very first fetch fails —
// a replica that has never reached its publisher still starts from its
// cache.
func (d *snapshots) buildFromFetch(ctx context.Context) (*serve.Snapshot, error) {
	if d.store != nil {
		return d.buildFromFetchFile(ctx)
	}
	fetchCtx, fetchSpan := telemetry.StartSpan(ctx, "fetch")
	data, gen, err := d.fetcher.Fetch(fetchCtx)
	if err != nil {
		if !errors.Is(err, snapstore.ErrUnchanged) {
			fetchSpan.End()
			d.noteError(err)
			if snap := d.takeCold(); snap != nil {
				d.log.Warn("publisher unreachable, serving cached snapshot",
					"url", d.cfg.SnapshotURL, "generation", d.servingGen.Load(), "err", err)
				return snap, nil
			}
			return nil, err
		}
		// A 304 can only race a forced reload that lost to a concurrent
		// etag update; re-fetch unconditionally rather than fail it.
		d.fetcher.Invalidate()
		if data, gen, err = d.fetcher.Fetch(fetchCtx); err != nil {
			fetchSpan.End()
			d.noteError(err)
			return nil, err
		}
	}
	fetchSpan.AddBytes(int64(len(data)))
	fetchSpan.End()
	_, decodeSpan := telemetry.StartSpan(ctx, "decode")
	snap, fileGen, err := snapstore.Decode(data)
	decodeSpan.End()
	if err != nil {
		d.noteError(err)
		return nil, err
	}
	if fileGen != gen {
		err := fmt.Errorf("fetched snapshot header says generation %d, transport said %d", fileGen, gen)
		d.noteError(err)
		return nil, err
	}
	// Link this reload to the publisher's: the decoded snapshot carries
	// the traceparent of the publisher reload that built the generation,
	// and adopting it re-identifies the replica's reload trace (fetch,
	// decode, the swap to come) as part of that generation's lifecycle
	// trace. On failure paths above the trace keeps its local ID, which
	// the fetch hop already emitted to the publisher — so the two halves
	// of an error join on that ID instead.
	if sc, ok := telemetry.ParseTraceparent(snap.Provenance); ok {
		telemetry.AdoptRemoteParent(ctx, sc)
	}
	d.noteContact(gen)
	d.servingGen.Store(gen)
	d.dropCold()
	if d.store != nil {
		_, persistSpan := telemetry.StartSpan(ctx, "persist")
		if err := d.store.PublishEncoded(data); err != nil {
			d.log.Warn("caching fetched snapshot failed", "generation", gen, "err", err)
			persistSpan.SetAttr("error", err.Error())
		}
		persistSpan.End()
	}
	d.pub.Set(data)
	d.observeLag()
	return snap, nil
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

// buildFromFetchFile is buildFromFetch for a replica with a local
// store: the body streams straight to a temp file
// in the store directory (never buffered on the heap), is adopted as a
// generation file, and the serving snapshot is opened as views over
// the mapped file — so a replica reload's transient memory is one
// 256 KiB copy buffer regardless of snapshot size, and the fetched
// bytes land in the page cache once, shared by the mapping and
// /snapshot/current re-serving.
func (d *snapshots) buildFromFetchFile(ctx context.Context) (*serve.Snapshot, error) {
	fetchCtx, fetchSpan := telemetry.StartSpan(ctx, "fetch")
	dir := d.store.Dir()
	tmpPath, gen, err := d.fetcher.FetchToFile(fetchCtx, dir)
	if err != nil {
		if !errors.Is(err, snapstore.ErrUnchanged) {
			fetchSpan.End()
			d.noteError(err)
			if snap := d.takeCold(); snap != nil {
				d.log.Warn("publisher unreachable, serving cached snapshot",
					"url", d.cfg.SnapshotURL, "generation", d.servingGen.Load(), "err", err)
				return snap, nil
			}
			return nil, err
		}
		// A 304 can only race a forced reload that lost to a concurrent
		// etag update; re-fetch unconditionally rather than fail it.
		d.fetcher.Invalidate()
		if tmpPath, gen, err = d.fetcher.FetchToFile(fetchCtx, dir); err != nil {
			fetchSpan.End()
			d.noteError(err)
			return nil, err
		}
	}
	if fi, serr := os.Stat(tmpPath); serr == nil {
		fetchSpan.AddBytes(fi.Size())
	}
	fetchSpan.End()
	_, persistSpan := telemetry.StartSpan(ctx, "persist")
	path, err := d.store.AdoptFile(tmpPath, gen)
	persistSpan.End()
	if err != nil {
		os.Remove(tmpPath)
		d.noteError(err)
		return nil, err
	}
	_, openSpan := telemetry.StartSpan(ctx, "open")
	ld, err := snapstore.OpenFile(path, snapstore.OpenOptions{Logger: d.log, Metrics: d.metrics})
	openSpan.End()
	if err != nil {
		// The whole-file CRC passed during the stream, so this is local
		// damage (torn write, disk fault); the generation file stays for
		// post-mortem and LoadCurrentOpen skips it.
		d.noteError(err)
		return nil, err
	}
	// Link this reload to the publisher's generation trace (see
	// buildFromFetch).
	if sc, ok := telemetry.ParseTraceparent(ld.Snap.Provenance); ok {
		telemetry.AdoptRemoteParent(ctx, sc)
	}
	d.noteContact(gen)
	d.servingGen.Store(gen)
	d.dropCold()
	if perr := d.pub.SetMapped(ld.Data, backingOf(ld)); perr != nil {
		d.log.Warn("republishing fetched snapshot failed", "generation", gen, "err", perr)
	}
	d.observeLag()
	return ld.Snap, nil
}

// onSwap is the publisher's serve.Config.OnSwap hook: encode the newly
// serving snapshot once and publish the same bytes to disk and to
// /snapshot/current. Runs on the reload goroutine after the swap; a
// failure here degrades persistence, never the reload.
func (d *snapshots) onSwap(ctx context.Context, snap *serve.Snapshot) {
	if d == nil || d.replica() {
		return // the replica path publishes in buildFromFetch, from the fetched bytes
	}
	if snap.LoadMode() != serve.LoadModeBuilt {
		return // restored from the store at cold start; already durable and published
	}
	gen := snap.Generation
	if gen == 0 {
		// The build wrappers stamp every fresh snapshot, so this only
		// happens for snapshots minted outside the daemon (tests driving
		// serve.Config directly). Mint locally without mutating snap — it
		// is already published to concurrent readers.
		gen = d.nextGen.Add(1)
	}
	_, span := telemetry.StartSpan(ctx, "publish")
	defer span.End()
	span.SetAttr("generation", strconv.FormatUint(gen, 10))
	data := snapstore.Encode(snap, gen)
	span.AddBytes(int64(len(data)))
	d.servingGen.Store(gen)
	if d.store != nil {
		if err := d.store.PublishEncoded(data); err != nil {
			d.log.Error("snapshot persistence failed", "generation", gen, "err", err)
			span.SetAttr("error", err.Error())
			return
		}
	}
	d.pub.Set(data)
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
		source = d.cfg.SnapshotDir
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
