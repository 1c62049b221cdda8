package snapstore

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"ipleasing/internal/serve"
	"ipleasing/internal/telemetry"
)

// manifestName is the pointer file naming the current generation. It is
// a hint, not the source of truth: recovery scans every generation file
// and validates contents, so a torn or stale manifest costs at most a
// few extra decode attempts, never a wrong snapshot.
const manifestName = "MANIFEST"

// ErrNoSnapshot reports a store directory holding no loadable
// generation — empty, or every candidate rejected as corrupt.
var ErrNoSnapshot = errors.New("snapstore: no loadable snapshot generation")

// Metrics holds the persistence and replication instruments. A nil
// *Metrics discards every observation, so wiring telemetry is optional
// everywhere in this package.
type Metrics struct {
	publish    *telemetry.CounterVec
	load       *telemetry.CounterVec
	fetch      *telemetry.CounterVec
	bytes      *telemetry.Gauge
	lag        *telemetry.Gauge
	fetchBytes *telemetry.Counter
	loadMode   *telemetry.CounterVec
	mmapActive *telemetry.Gauge
}

// NewMetrics registers the snapshot instrument families on a registry:
// snapshot_publish_total{outcome}, snapshot_load_total{outcome},
// replica_fetch_total{outcome}, snapshot_bytes, and
// replica_generation_lag.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		publish: r.CounterVec("snapshot_publish_total",
			"Snapshot store publish attempts by outcome.", "outcome"),
		load: r.CounterVec("snapshot_load_total",
			"Snapshot store load attempts by outcome.", "outcome"),
		fetch: r.CounterVec("replica_fetch_total",
			"Replica snapshot fetch attempts by outcome.", "outcome"),
		bytes: r.Gauge("snapshot_bytes",
			"Size in bytes of the most recently published or loaded snapshot."),
		lag: r.Gauge("replica_generation_lag",
			"Publisher generation minus the replica's serving generation."),
		fetchBytes: r.Counter("replica_fetch_bytes_total",
			"Snapshot body bytes downloaded by the replica fetcher, counted while streaming."),
		loadMode: r.CounterVec("snapshot_load_mode_total",
			"Snapshot open operations by load mode (mmap or heap).", "mode"),
		mmapActive: r.Gauge("snapshot_mmap_active",
			"Live snapshot memory mappings (serving or draining)."),
	}
}

func (m *Metrics) observePublish(outcome string) {
	if m != nil {
		m.publish.With(outcome).Inc()
	}
}

func (m *Metrics) observeLoad(outcome string) {
	if m != nil {
		m.load.With(outcome).Inc()
	}
}

func (m *Metrics) observeFetch(outcome string) {
	if m != nil {
		m.fetch.With(outcome).Inc()
	}
}

func (m *Metrics) observeBytes(n int) {
	if m != nil {
		m.bytes.Set(float64(n))
	}
}

// ObserveLag sets the replica_generation_lag gauge; the replica poll
// loop (cmd/leased) refreshes it on every probe and fetch.
func (m *Metrics) ObserveLag(lag float64) {
	if m != nil {
		m.lag.Set(lag)
	}
}

func (m *Metrics) observeFetchBytes(n int) {
	if m != nil {
		m.fetchBytes.Add(uint64(n))
	}
}

func (m *Metrics) observeLoadMode(mode string) {
	if m != nil {
		m.loadMode.With(mode).Inc()
	}
}

func (m *Metrics) observeMmapActive(d float64) {
	if m != nil {
		m.mmapActive.Add(d)
	}
}

// StoreOptions configures Open. The zero value keeps 4 generations and
// observes nothing.
type StoreOptions struct {
	// Keep bounds retained generations; older ones are pruned after each
	// publish. 0 means 4; negative keeps everything.
	Keep    int
	Logger  *telemetry.Logger
	Metrics *Metrics
}

// Store is a crash-safe on-disk snapshot store: one directory holding
// generation files gen-<hex>.snap plus a MANIFEST pointer. Publication
// is write-temp / fsync / rename / fsync-dir, so a generation either
// exists completely or not at all; a crash at any instant leaves the
// previous generations untouched and recovery scans newest-first past
// anything torn.
type Store struct {
	dir     string
	keep    int
	log     *telemetry.Logger
	metrics *Metrics
}

// Open prepares a snapshot store rooted at dir, creating the directory
// if needed.
func Open(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: open %s: %w", dir, err)
	}
	keep := opts.Keep
	if keep == 0 {
		keep = 4
	}
	return &Store{dir: dir, keep: keep, log: opts.Logger, metrics: opts.Metrics}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func genFileName(gen uint64) string { return fmt.Sprintf("gen-%016x.snap", gen) }

// parseGenName extracts the generation from a gen-<hex>.snap filename.
func parseGenName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "gen-"), ".snap")
	if len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Publish encodes a serving snapshot as generation gen and durably
// publishes it.
func (st *Store) Publish(snap *serve.Snapshot, gen uint64) error {
	return st.PublishEncoded(Encode(snap, gen))
}

// Path returns the file generation gen is stored in.
func (st *Store) Path(gen uint64) string { return filepath.Join(st.dir, genFileName(gen)) }

// PublishEncoded durably publishes an already-encoded snapshot under
// the generation stamped in its header: validate, write to a temp file
// and fsync it, then take AdoptFile's path into place. A crash between
// any two steps leaves the store loadable — at worst the new generation
// exists without a manifest pointing at it, which recovery's scan finds
// anyway. The generation file is Path(gen).
//
// The validation is a whole-file CRC pass over bytes that Encode may
// have produced a moment before, and it stays: the store must never
// hold a generation its own process could not open, whatever handed
// it the bytes.
func (st *Store) PublishEncoded(data []byte) error {
	gen, err := ReadGeneration(data)
	if err != nil {
		st.metrics.observePublish("error")
		return fmt.Errorf("snapstore: refusing to publish: %w", err)
	}
	tmp, err := st.writeTemp(genFileName(gen), data)
	if err != nil {
		st.metrics.observePublish("error")
		st.log.Error("snapshot publish failed", "generation", gen, "err", err)
		return err
	}
	if err := st.AdoptFile(tmp, gen); err != nil {
		return err
	}
	st.metrics.observeBytes(len(data))
	return nil
}

// writeTemp writes data to a fresh temp file under the store directory
// and fsyncs it, returning its path; on failure nothing is left behind.
func (st *Store) writeTemp(name string, data []byte) (string, error) {
	f, err := os.CreateTemp(st.dir, ".tmp-"+name+"-*")
	if err != nil {
		return "", fmt.Errorf("snapstore: create temp for %s: %w", name, err)
	}
	tmp := f.Name()
	if _, err = f.Write(data); err != nil {
		err = fmt.Errorf("snapstore: write %s: %w", name, err)
	} else if err = f.Sync(); err != nil {
		err = fmt.Errorf("snapstore: fsync %s: %w", name, err)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("snapstore: close %s: %w", name, cerr)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// writeAtomic writes name under the store directory via a unique temp
// file, fsync, and atomic rename.
func (st *Store) writeAtomic(name string, data []byte) error {
	tmp, err := st.writeTemp(name, data)
	if err != nil {
		return err
	}
	return st.rename(tmp, name)
}

// rename moves tmp into place as name, then fsyncs the directory so the
// rename itself is durable. A tmp that cannot be renamed is removed.
func (st *Store) rename(tmp, name string) error {
	if err := os.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapstore: rename %s: %w", name, err)
	}
	return st.syncDir()
}

func (st *Store) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return fmt.Errorf("snapstore: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapstore: fsync dir: %w", err)
	}
	return nil
}

// generations lists generation files present on disk, newest first,
// ordered by the generation encoded in the filename. Stray temp files
// and unparseable names are ignored. The name is not trusted for
// anything beyond ordering — loading decodes and verifies contents.
func (st *Store) generations() ([]uint64, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: read dir: %w", err)
	}
	var gens []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if gen, ok := parseGenName(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	slices.SortFunc(gens, func(a, b uint64) int { return cmp.Compare(b, a) })
	return gens, nil
}

// Generations lists on-disk generation numbers, newest first.
func (st *Store) Generations() ([]uint64, error) { return st.generations() }

// NewestGeneration returns the highest generation number present on
// disk (loadable or not — callers use it to seed a monotonic counter),
// and whether any generation file exists.
func (st *Store) NewestGeneration() (uint64, bool) {
	gens, err := st.generations()
	if err != nil || len(gens) == 0 {
		return 0, false
	}
	return gens[0], true
}

// prune removes generations beyond the retention bound, never the one
// just published. Prune failures are logged, not returned: losing an
// old generation to a full disk must not fail a successful publish.
func (st *Store) prune(current uint64) {
	if st.keep < 0 {
		return
	}
	gens, err := st.generations()
	if err != nil {
		st.log.Warn("snapshot prune skipped", "err", err)
		return
	}
	kept := 0
	for _, gen := range gens {
		if gen == current || kept < st.keep {
			kept++
			continue
		}
		if err := os.Remove(st.Path(gen)); err != nil {
			st.log.Warn("snapshot prune failed", "generation", gen, "err", err)
		} else {
			st.log.Info("snapshot pruned", "generation", gen)
		}
	}
}

// LoadCurrentOpen opens the newest valid generation for serving
// through OpenFile — memory-mapped when the platform allows, decoded on
// the heap otherwise. Every generation file is tried newest-first, and
// any unreadable, torn, truncated, bit-flipped, or wrong-version
// candidate is rejected and skipped — falling back generation by
// generation until one validates. Returns ErrNoSnapshot when nothing on
// disk is loadable (the caller falls back to a full dataset load, or a
// replica to a fetch).
func (st *Store) LoadCurrentOpen(opts OpenOptions) (*Loaded, error) {
	if opts.Logger == nil {
		opts.Logger = st.log
	}
	if opts.Metrics == nil {
		opts.Metrics = st.metrics
	}
	gens, err := st.generations()
	if err != nil {
		st.metrics.observeLoad("error")
		return nil, err
	}
	for _, gen := range gens {
		name := genFileName(gen)
		ld, err := OpenFile(st.Path(gen), opts)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				st.metrics.observeLoad("corrupt")
			} else {
				st.metrics.observeLoad("error")
			}
			st.log.Warn("snapshot rejected, trying older generation", "file", name, "err", err)
			continue
		}
		st.metrics.observeLoad("ok")
		st.metrics.observeBytes(len(ld.Data))
		st.log.Info("snapshot opened", "generation", ld.Gen, "bytes", len(ld.Data),
			"file", name, "load_mode", ld.Snap.LoadMode())
		return ld, nil
	}
	st.metrics.observeLoad("missing")
	return nil, fmt.Errorf("%w in %s (%d candidates)", ErrNoSnapshot, st.dir, len(gens))
}

// AdoptFile durably adopts an already-written snapshot file as
// generation gen: rename into place, fsync the directory, repoint
// MANIFEST, prune. It is the tail of every publish — PublishEncoded
// after writing the encoded bytes, a replica after FetchToFile streamed
// a body to disk. The rename requires tmpPath to be on the store's
// filesystem (FetchToFile writes its temp inside the store directory
// for exactly this reason), and the caller must have fsynced the file
// and verified its checksums. On failure tmpPath is gone or already in
// place; either way the caller has nothing to clean up. The adopted
// file is Path(gen).
func (st *Store) AdoptFile(tmpPath string, gen uint64) error {
	name := genFileName(gen)
	if err := st.rename(tmpPath, name); err != nil {
		st.metrics.observePublish("error")
		st.log.Error("snapshot publish failed", "generation", gen, "err", err)
		return err
	}
	// The generation file is durable; a manifest failure from here on
	// degrades recovery to the scan path but must not fail the publish.
	if err := st.writeAtomic(manifestName, []byte(name+"\n")); err != nil {
		st.log.Warn("snapshot manifest update failed", "generation", gen, "err", err)
	}
	st.prune(gen)
	st.metrics.observePublish("ok")
	st.log.Info("snapshot published", "generation", gen, "file", name)
	return nil
}
