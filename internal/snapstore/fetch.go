package snapstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipleasing/internal/telemetry"
)

// generationHeader carries the decimal generation number on publisher
// responses, so a replica can measure lag from a HEAD probe without
// parsing the ETag.
const generationHeader = "X-Snapshot-Generation"

// provenanceHeader carries the published generation's provenance — the
// W3C traceparent of the publisher reload that built it — on publisher
// responses, so operators can join a fetched generation to the
// publisher's /debug/traces without decoding the body.
const provenanceHeader = "X-Snapshot-Traceparent"

// ErrUnchanged reports a conditional fetch answered 304: the publisher
// still serves the generation the fetcher already has.
var ErrUnchanged = errors.New("snapstore: snapshot unchanged")

// ErrNotPublished reports a publisher that has not published any
// generation yet (HTTP 503).
var ErrNotPublished = errors.New("snapstore: publisher has no snapshot yet")

// RetryAfterError wraps a fetch or probe failure whose response carried
// a Retry-After header (a 429 from an overloaded publisher's limiter,
// or a 503 while it warms up). After is the honored back-off, already
// capped at FetcherOptions.RetryAfterCap — the poll loop suppresses
// ticks for that long instead of hammering a server that explicitly
// asked for room, and the serve reload machinery stretches its retry
// backoff to at least After.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfter reports the honored back-off hint. It implements the
// interface internal/serve uses to stretch reload-retry backoff without
// either package importing the other.
func (e *RetryAfterError) RetryAfter() time.Duration { return e.After }

// parseRetryAfter parses both Retry-After header forms — delta-seconds
// ("120") and HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT") — into a
// positive duration from now. Returns false for an absent, unparseable,
// zero, or already-elapsed header: a hint that doesn't push the next
// attempt into the future carries no information.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// wrapRetryAfter layers a RetryAfterError over err when the response
// carries a parseable Retry-After header, capping the honored hint at
// cap (0 = uncapped).
func wrapRetryAfter(err error, resp *http.Response, cap time.Duration, now time.Time) error {
	after, ok := parseRetryAfter(resp.Header.Get("Retry-After"), now)
	if !ok {
		return err
	}
	if cap > 0 && after > cap {
		after = cap
	}
	return &RetryAfterError{Err: err, After: after}
}

// genETag renders the strong ETag for a generation. The ETag is derived
// from the generation alone: the store's monotonic numbering guarantees
// one generation is one immutable byte string.
func genETag(gen uint64) string { return fmt.Sprintf("%q", fmt.Sprintf("gen-%016x", gen)) }

type publication struct {
	gen  uint64
	etag string
	prov string // provenance traceparent from the meta section, may be ""
	data []byte
	// backing, when non-nil, owns data's memory (a mapped generation
	// file). The publication holds one reference; every in-flight
	// download holds another, so replacing the publication never unmaps
	// bytes a response is still streaming.
	backing *Mapped
}

// Publisher serves the most recently published encoded snapshot over
// HTTP for replica daemons: GET returns the bytes, HEAD just the
// generation headers, and If-None-Match answers 304 so an up-to-date
// replica costs one header exchange. Publish and ServeHTTP are safe
// under arbitrary concurrency — the current publication swaps
// atomically.
type Publisher struct {
	cur atomic.Pointer[publication]
}

// NewPublisher returns a publisher with nothing published; requests
// answer 503 until the first Publish.
func NewPublisher() *Publisher { return &Publisher{} }

// Publish makes an opened generation the current publication:
// ld.Data under generation ld.Gen and the provenance of ld.Snap.
// OpenFile and Decode validated every checksum of those bytes on the
// way to ld, so a publisher never hands replicas bytes it could not
// load itself, and nothing is parsed again here. When ld is mapped,
// /snapshot/current serves straight from the mapping the answers come
// from instead of holding a second heap copy: the publisher takes its
// own reference on ld.Backing (the caller must still hold one) and
// drops it when the publication is replaced.
func (p *Publisher) Publish(ld *Loaded) error {
	if ld.Backing != nil && !ld.Backing.Acquire() {
		return errors.New("snapstore: publish backing already released")
	}
	old := p.cur.Swap(&publication{gen: ld.Gen, etag: genETag(ld.Gen), prov: ld.Snap.Provenance, data: ld.Data, backing: ld.Backing})
	if old != nil && old.backing != nil {
		old.backing.Release()
	}
	return nil
}

// Generation returns the currently published generation, or false when
// nothing is published yet.
func (p *Publisher) Generation() (uint64, bool) {
	cur := p.cur.Load()
	if cur == nil {
		return 0, false
	}
	return cur.gen, true
}

// ServeHTTP answers GET and HEAD for the current snapshot.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Pin the publication's backing (if any) for the whole response:
	// losing the Load/Acquire race just means a newer publication
	// replaced this one and released the last reference — retry against
	// the newer one.
	var cur *publication
	for {
		cur = p.cur.Load()
		if cur == nil {
			// A warming publisher tells replicas how soon to come back, so
			// fleet cold starts don't synchronize into a poll stampede.
			w.Header().Set("Retry-After", "1")
			http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
			return
		}
		if cur.backing == nil || cur.backing.Acquire() {
			break
		}
	}
	if cur.backing != nil {
		defer cur.backing.Release()
	}
	h := w.Header()
	h.Set("ETag", cur.etag)
	h.Set(generationHeader, strconv.FormatUint(cur.gen, 10))
	if cur.prov != "" {
		h.Set(provenanceHeader, cur.prov)
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(cur.data)))
	if r.Header.Get("If-None-Match") == cur.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if r.Method == http.MethodHead {
		return
	}
	w.Write(cur.data)
}

// FetcherOptions configures NewFetcher. The zero value uses a 30-second
// request timeout and observes nothing.
type FetcherOptions struct {
	// Timeout bounds each HTTP request. 0 means 30 seconds.
	Timeout time.Duration
	// MaxBytes bounds an accepted snapshot body; a response claiming or
	// delivering more is rejected rather than buffered. 0 means 1 GiB.
	MaxBytes int64
	// RetryAfterCap bounds an honored Retry-After hint from the
	// publisher, so a lying or misconfigured server cannot stall
	// replication arbitrarily. Replica daemons set it to the poll
	// interval. 0 means 30 seconds.
	RetryAfterCap time.Duration
	Logger        *telemetry.Logger
	Metrics       *Metrics
	// Client overrides the HTTP client (tests). Timeout is ignored when
	// set.
	Client *http.Client
}

// Fetcher pulls encoded snapshots from a Publisher URL for replica
// serving. It remembers the last generation it delivered and fetches
// conditionally, so steady state is one 304 per poll. FetchToFile
// validates every downloaded body's whole-file checksum before
// returning it — a truncated or corrupted transfer surfaces as an
// error, never as a file.
//
// Fetcher performs single attempts; retry, backoff, and the circuit
// breaker around repeated failures belong to the serve.Server reload
// machinery driving it, so replica fetch failures share the exact
// degradation behavior (serve last-good, flip /readyz, open breaker) as
// publisher-side dataset failures.
type Fetcher struct {
	url      string
	client   *http.Client
	maxBytes int64
	retryCap time.Duration
	log      *telemetry.Logger
	metrics  *Metrics
	now      func() time.Time // test hook for Retry-After date parsing

	mu   sync.Mutex
	etag string // of the last delivered snapshot; "" forces a full fetch
}

// NewFetcher returns a fetcher for a publisher's snapshot endpoint
// (e.g. http://host:8080/snapshot/current).
func NewFetcher(url string, opts FetcherOptions) *Fetcher {
	client := opts.Client
	if client == nil {
		timeout := opts.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	maxBytes := opts.MaxBytes
	if maxBytes == 0 {
		maxBytes = 1 << 30
	}
	retryCap := opts.RetryAfterCap
	if retryCap == 0 {
		retryCap = 30 * time.Second
	}
	return &Fetcher{
		url: url, client: client, maxBytes: maxBytes, retryCap: retryCap,
		log: opts.Logger, metrics: opts.Metrics, now: time.Now,
	}
}

// URL returns the publisher endpoint this fetcher polls.
func (f *Fetcher) URL() string { return f.url }

// Invalidate forgets the last delivered generation, so the next fetch
// is unconditional. The replica wires SIGHUP to it: an operator-forced
// refresh must transfer the body even if the publisher claims nothing
// changed.
func (f *Fetcher) Invalidate() {
	f.mu.Lock()
	f.etag = ""
	f.mu.Unlock()
}

func (f *Fetcher) loadETag() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.etag
}

func (f *Fetcher) storeETag(etag string) {
	f.mu.Lock()
	f.etag = etag
	f.mu.Unlock()
}

// setTraceparent propagates the span carried by ctx (if any) onto an
// outbound publisher request as a W3C traceparent header, so the
// publisher's request tracing can link the hop to the replica's reload
// trace. Note the replica later ADOPTS the publisher's generation trace
// on a successful open; the ID emitted here is recorded as the
// replaced ID in that case, and joins the two error paths otherwise.
func setTraceparent(ctx context.Context, req *http.Request) {
	if tp := telemetry.SpanFrom(ctx).Traceparent(); tp != "" {
		req.Header.Set(telemetry.TraceparentHeader, tp)
	}
}

// Probe asks the publisher (HEAD) which generation it currently serves,
// without transferring the body. Used by the replica poll loop to skip
// no-op reloads and to measure replication lag.
func (f *Fetcher) Probe(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, f.url, nil)
	if err != nil {
		return 0, fmt.Errorf("snapstore: probe %s: %w", f.url, err)
	}
	setTraceparent(ctx, req)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("snapstore: probe %s: %w", f.url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return 0, wrapRetryAfter(ErrNotPublished, resp, f.retryCap, f.now())
	case resp.StatusCode == http.StatusTooManyRequests:
		return 0, wrapRetryAfter(
			fmt.Errorf("snapstore: probe %s: status %d", f.url, resp.StatusCode),
			resp, f.retryCap, f.now())
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("snapstore: probe %s: status %d", f.url, resp.StatusCode)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(generationHeader), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("snapstore: probe %s: bad %s header: %w", f.url, generationHeader, err)
	}
	return gen, nil
}

// get issues the conditional GET and vets the status line. A non-nil
// response is a 200 whose body the caller must drain and close; every
// error path has already closed it. ErrUnchanged (304) comes back as
// an error, so every non-200 status is handled in one switch.
func (f *Fetcher) get(ctx context.Context) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url, nil)
	if err != nil {
		return nil, fmt.Errorf("snapstore: fetch %s: %w", f.url, err)
	}
	if etag := f.loadETag(); etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	setTraceparent(ctx, req)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("snapstore: fetch %s: %w", f.url, err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return nil, ErrUnchanged
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, wrapRetryAfter(ErrNotPublished, resp, f.retryCap, f.now())
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, wrapRetryAfter(
			fmt.Errorf("snapstore: fetch %s: status %d", f.url, resp.StatusCode),
			resp, f.retryCap, f.now())
	default:
		return nil, fmt.Errorf("snapstore: fetch %s: status %d", f.url, resp.StatusCode)
	}
}

// crcTailWriter streams a snapshot body to dst while computing the
// whole-file Castagnoli checksum. The checksum covers everything
// except the trailing 4-byte footer — whose position is unknown until
// EOF — so the writer lags the CRC four bytes behind the stream. It
// also captures the first header-sized chunk (for generation/version
// parsing) and enforces the byte cap incrementally: an oversized body
// fails mid-stream, never after buffering.
type crcTailWriter struct {
	dst     io.Writer
	max     int64     // 0 = uncapped
	onBytes func(int) // progress hook (replica_fetch_bytes_total), may be nil

	n      int64
	crc    uint32
	lag    [4]byte
	lagLen int
	head   []byte
}

// errBodyTooBig marks an incremental cap violation; callers rewrap it
// with the URL and cap.
var errBodyTooBig = errors.New("snapstore: body exceeds byte cap")

func (w *crcTailWriter) Write(p []byte) (int, error) {
	if w.max > 0 && w.n+int64(len(p)) > w.max {
		return 0, errBodyTooBig
	}
	if _, err := w.dst.Write(p); err != nil {
		return 0, err
	}
	if w.onBytes != nil && len(p) > 0 {
		w.onBytes(len(p))
	}
	if len(w.head) < headerSize+4 {
		need := headerSize + 4 - len(w.head)
		if need > len(p) {
			need = len(p)
		}
		w.head = append(w.head, p[:need]...)
	}
	total := w.lagLen + len(p)
	if total <= len(w.lag) {
		copy(w.lag[w.lagLen:], p)
		w.lagLen = total
	} else {
		cut := total - len(w.lag) // bytes leaving the lag window into the CRC
		m := cut
		if m > w.lagLen {
			m = w.lagLen
		}
		w.crc = crc32.Update(w.crc, castagnoli, w.lag[:m])
		rem := w.lagLen - m
		copy(w.lag[:rem], w.lag[m:w.lagLen])
		w.crc = crc32.Update(w.crc, castagnoli, p[:cut-m])
		copy(w.lag[rem:], p[cut-m:])
		w.lagLen = len(w.lag)
	}
	w.n += int64(len(p))
	return len(p), nil
}

// finish validates what streamed: length, whole-file CRC against the
// lagged footer, and the header fields. Returns the generation.
func (w *crcTailWriter) finish() (uint64, *CorruptError) {
	if w.n < headerSize+4 {
		return 0, corrupt("header", fmt.Sprintf("body of %d bytes is shorter than any snapshot", w.n), ErrTruncated)
	}
	if stored := binary.LittleEndian.Uint32(w.lag[:]); stored != w.crc {
		return 0, corrupt("file", "whole-file CRC mismatch", ErrChecksum)
	}
	gen, _, cerr := header(w.head)
	if cerr != nil {
		return 0, cerr
	}
	return gen, nil
}

// FetchToFile downloads the current snapshot, conditionally on the
// last generation this fetcher delivered, by streaming the body to a
// temp file in dir — the body never lives on the heap, so a replica
// adopting a multi-hundred-MB generation pays one fixed copy buffer
// instead of a transient allocation the size of the snapshot. Returns
// ErrUnchanged on 304. The byte cap is enforced,
// replica_fetch_bytes_total counted and the whole-file checksum
// computed while the body streams, so a lying Content-Length or an
// oversized body is cut off mid-transfer. The temp file is fsynced
// before the path is returned and removed on every error path, and
// every failure is counted on replica_fetch_total. dir should be the
// replica's store directory so Store.AdoptFile can rename the result
// into place (same filesystem) and OpenFile can map it.
//
// A successful return has passed only the whole-file checksum;
// adoption-time OpenFile performs the per-section validation that
// makes a malicious or truncated body unservable.
func (f *Fetcher) FetchToFile(ctx context.Context, dir string) (string, uint64, error) {
	resp, err := f.get(ctx)
	if err != nil {
		if errors.Is(err, ErrUnchanged) {
			f.metrics.observeFetch("unchanged")
		} else {
			f.metrics.observeFetch("error")
		}
		return "", 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.ContentLength > f.maxBytes {
		f.metrics.observeFetch("error")
		return "", 0, f.errTooBig()
	}
	tmp, err := os.CreateTemp(dir, ".fetch-*.snap")
	if err != nil {
		f.metrics.observeFetch("error")
		return "", 0, fmt.Errorf("snapstore: fetch %s: %w", f.url, err)
	}
	w := &crcTailWriter{dst: tmp, max: f.maxBytes, onBytes: f.metrics.observeFetchBytes}
	_, err = io.Copy(w, resp.Body)
	var gen uint64
	outcome := "error"
	switch {
	case errors.Is(err, errBodyTooBig):
		err = f.errTooBig()
	case err != nil:
		err = fmt.Errorf("snapstore: fetch %s: stream body: %w", f.url, err)
	default:
		var cerr *CorruptError
		if gen, cerr = w.finish(); cerr != nil {
			outcome = "corrupt"
			f.log.Warn("fetched snapshot rejected", "url", f.url, "bytes", w.n, "err", cerr)
			err = fmt.Errorf("snapstore: fetch %s: %w", f.url, cerr)
		} else if err = tmp.Sync(); err != nil {
			err = fmt.Errorf("snapstore: fetch %s: fsync temp: %w", f.url, err)
		}
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("snapstore: fetch %s: close temp: %w", f.url, cerr)
	}
	if err != nil {
		f.metrics.observeFetch(outcome)
		os.Remove(tmp.Name())
		return "", 0, err
	}
	// The next fetch is conditional on the generation just delivered.
	f.storeETag(genETag(gen))
	f.metrics.observeFetch("ok")
	f.metrics.observeBytes(int(w.n))
	f.log.Info("snapshot fetched", "url", f.url, "generation", gen, "bytes", w.n)
	return tmp.Name(), gen, nil
}

func (f *Fetcher) errTooBig() error {
	return fmt.Errorf("snapstore: fetch %s: body exceeds %d byte cap", f.url, f.maxBytes)
}
