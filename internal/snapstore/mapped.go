package snapstore

import (
	"fmt"
	"os"
	"sync/atomic"

	"ipleasing/internal/serve"
	"ipleasing/internal/telemetry"
)

// Mapped is a refcounted memory-mapped snapshot file. It implements
// serve.Backing: the serving snapshot holds the creation reference,
// each in-flight request that touches the snapshot holds one more, and
// the final Release unmaps. The swap path (serve.Server.Reload)
// releases the old generation's creation reference only after the new
// snapshot is installed, so a mapping disappears exactly when the last
// in-flight request over it drains — never under one.
type Mapped struct {
	refs    atomic.Int64
	data    []byte
	metrics *Metrics
}

// newMapped wraps a mapping with its creation reference already held.
func newMapped(data []byte, metrics *Metrics) *Mapped {
	m := &Mapped{data: data, metrics: metrics}
	m.refs.Store(1)
	metrics.observeMmapActive(+1)
	return m
}

// Bytes returns the mapped file. Valid only while the caller holds a
// reference.
func (m *Mapped) Bytes() []byte { return m.data }

// Active reports whether the mapping is still live (any reference
// outstanding). Test hook for the unmap-after-drain guarantee.
func (m *Mapped) Active() bool { return m.refs.Load() > 0 }

// Acquire takes a reference, failing when the mapping has already been
// released for the last time.
func (m *Mapped) Acquire() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference; the last one unmaps the file.
func (m *Mapped) Release() {
	if m.refs.Add(-1) == 0 {
		m.metrics.observeMmapActive(-1)
		munmapFile(m.data)
		m.data = nil
	}
}

// OpenOptions configures OpenFile.
type OpenOptions struct {
	Logger  *telemetry.Logger
	Metrics *Metrics
}

// Loaded is a snapshot opened from a generation file.
type Loaded struct {
	Snap *serve.Snapshot
	Gen  uint64
	// Data is the encoded file: the live mapping when Backing is
	// non-nil (valid only while a reference is held), a heap copy
	// otherwise. A daemon hands the Loaded to Publisher.Publish for every
	// generation it opens — a publisher's freshly persisted one, a
	// replica's fetched one, either's at cold start — so
	// /snapshot/current serves the same bytes the answers come from,
	// never a second copy.
	Data []byte
	// Backing is the mapping the snapshot serves from, nil when the file
	// was decoded on the heap (Snap.LoadMode() says which). The snapshot
	// owns the creation reference; callers that keep Data past the
	// snapshot's lifetime must Acquire their own.
	Backing *Mapped
}

// OpenFile opens one snapshot generation file for serving. It maps the
// bytes (page cache, shared, read-only), hints readahead, CRC-validates
// every section eagerly — validate-then-trust: a corrupt file, or one
// of another format version, fails here with ErrCorrupt; a valid one
// is never integrity-checked again — and assembles the snapshot as
// views over the mapping: no per-record decode, interned strings built
// once, near-zero allocations. A platform without mmap, or a mapping
// that fails, degrades to reading the file onto the heap and decoding
// it there — same views, same answers, the memory owned by the GC
// instead of the page cache.
func OpenFile(path string, opts OpenOptions) (*Loaded, error) {
	if !mmapSupported {
		return openHeap(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapstore: open %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapstore: stat %s: %w", path, err)
	}
	size := fi.Size()
	if size < headerSize {
		return nil, corrupt("header", fmt.Sprintf("%s is %d bytes", path, size), ErrTruncated)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("snapstore: %s: %d bytes exceed the address space", path, size)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		// Mapping can fail for environmental reasons (filesystem without
		// mmap support, vm.max_map_count); that must degrade, not fail.
		opts.Logger.Warn("snapshot mmap failed, falling back to heap decode", "file", path, "err", err)
		return openHeap(path, opts)
	}
	madviseWillNeed(data)
	gen, payloads, cerr := parseFile(data)
	if cerr != nil {
		munmapFile(data)
		return nil, cerr
	}
	backing := newMapped(data, opts.Metrics)
	snap, err := openV3(payloads, gen, backing)
	if err != nil {
		backing.Release()
		return nil, err
	}
	opts.Metrics.observeLoadMode(serve.LoadModeMmap)
	return &Loaded{Snap: snap, Gen: gen, Data: data, Backing: backing}, nil
}

// openHeap is the unmapped path: identical output, heap-held bytes.
func openHeap(path string, opts OpenOptions) (*Loaded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapstore: read %s: %w", path, err)
	}
	snap, gen, err := Decode(data)
	if err != nil {
		return nil, err
	}
	opts.Metrics.observeLoadMode(serve.LoadModeHeap)
	return &Loaded{Snap: snap, Gen: gen, Data: data}, nil
}
