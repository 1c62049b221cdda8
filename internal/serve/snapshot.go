// Package serve implements the resilient lease-lookup service: an
// immutable in-memory snapshot of one dataset load plus inference run,
// and an HTTP server that answers prefix/ASN lease queries from it.
//
// The architecture is snapshot-swap: queries always read a fully built,
// never-mutated *Snapshot through an atomic pointer, and a hot reload
// builds the next snapshot off-thread — with retry, exponential backoff,
// and a circuit breaker — then swaps it in atomically. A failed reload
// (corrupt feed mirror, tripped ingestion breaker, panicking parser)
// leaves the last good snapshot serving and surfaces the degradation
// through /readyz and /statusz instead of through dropped queries. This
// is the operational shape the paper's §6.5 longitudinal study implies:
// a long-lived attribution service fed by monthly registry and RIB
// refreshes, where any individual refresh may be rotten.
package serve

import (
	"bytes"
	"errors"
	"sync/atomic"
	"time"

	"ipleasing/internal/core"
	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/report"
)

// Snapshot is one immutable serving state: the inference result of a
// single dataset load, indexed for allocation-free query answering, with
// the load's diagnostics attached. Snapshots are never mutated after
// NewSnapshot returns, so any number of request goroutines may read one
// concurrently while the next snapshot is being built.
type Snapshot struct {
	// BuiltAt is when the snapshot finished building. The Server stamps
	// it at swap time if the builder left it zero.
	BuiltAt time.Time
	// Generation is the snapshot's monotonically increasing publication
	// number, stamped by whoever minted the snapshot (the daemon's
	// build wrappers, or the snapshot codec on decode). Zero means the
	// process never assigns generations (no snapshot store configured).
	Generation uint64
	// Provenance is the W3C traceparent of the reload span that built
	// the snapshot. The Server stamps it at swap time if the builder
	// left it empty and the reload is being traced; the snapshot codec
	// carries it across the wire so a replica's fetch/open/swap spans
	// can link back to the publisher's reload trace. Empty when the
	// build was untraced.
	Provenance string
	// Dir is the dataset directory the snapshot was loaded from.
	Dir string
	// Strict records the ingestion policy of the load.
	Strict bool
	// Result is the full inference output backing every lookup.
	Result *core.Result
	// Reports is the per-source load accounting of the build.
	Reports []*diag.LoadReport
	// SkippedAnalyses names analyses the load's dataset cannot support.
	SkippedAnalyses []string
	// Inferred marks a snapshot whose reload ran inference: NewSnapshot
	// and PatchSnapshot set it, and so does a publisher on the
	// generation it opens from the bytes it just encoded. Restore leaves
	// it false, so a cold start or a replica fetch reloads in
	// ModeSnapshot whatever its LoadMode.
	Inferred bool
	// Delta, when non-nil, describes how PatchSnapshot produced the
	// snapshot on the library's incremental path; nil means any other
	// origin.
	Delta *DeltaInfo

	table1 []byte
	infs   []core.Inference
	lpm    *netutil.LPM
	// byASN holds flat indices into infs rather than pointers, so a
	// restored snapshot can alias it straight from the snapshot bytes.
	byASN *ASNView

	// backing, when non-nil, owns memory the snapshot's indexes alias
	// (a memory-mapped snapshot file). refs counts the holders keeping
	// those views safe to read: the serving slot plus every in-flight
	// request that called Acquire. The last Release drops the
	// snapshot's backing reference, which may unmap the file — so
	// every reader of a possibly-mapped snapshot goes through
	// Acquire/Release (Server.acquireSnap). Heap snapshots skip all of
	// it: nil backing makes Acquire a constant true and Release a
	// no-op, keeping the built path branch-cheap and GC-managed.
	backing  Backing
	refs     atomic.Int64
	loadMode string

	// genHeader is the GenerationHeader value, formatted once by Reload
	// before the swap publishes the snapshot (nil for generation 0) and
	// shared by every response it answers.
	genHeader []string
}

// Acquire takes a read reference on the snapshot's backing memory.
// It returns false only for a view-backed snapshot whose last
// reference already dropped (the mapping is gone); the caller must
// re-resolve the snapshot pointer. Heap snapshots always succeed.
func (s *Snapshot) Acquire() bool {
	if s.backing == nil {
		return true
	}
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops a reference taken by Acquire (or the creation
// reference Restore minted). The last drop releases the backing —
// for a mapped snapshot, potentially munmap — after which every view
// (inference arena, LPM nodes, ASN index, table1) is invalid.
func (s *Snapshot) Release() {
	if s.backing == nil {
		return
	}
	if s.refs.Add(-1) == 0 {
		s.backing.Release()
	}
}

// LoadMode reports how the snapshot's indexes are held: LoadModeBuilt
// (constructed in-process), LoadModeHeap (restored from snapshot bytes
// on the heap), or LoadModeMmap (restored as views over a mapped file —
// the restored snapshots with a backing). It says nothing about what
// the reload ran: a publisher's generation is inferred and then
// reopened from its own file, so it is LoadModeMmap; Inferred says
// which reloads ran inference.
func (s *Snapshot) LoadMode() string {
	if s.loadMode == "" {
		return LoadModeBuilt
	}
	return s.loadMode
}

// NewSnapshot indexes an inference result for serving. The result and
// reports must not be mutated afterwards; the snapshot takes ownership.
func NewSnapshot(res *core.Result, reports []*diag.LoadReport, skippedAnalyses []string) *Snapshot {
	s := &Snapshot{
		Result:          res,
		Reports:         reports,
		SkippedAnalyses: skippedAnalyses,
		Inferred:        true,
	}
	s.infs = res.Flat()
	ps := make([]netutil.Prefix, len(s.infs))
	for i := range s.infs {
		ps[i] = s.infs[i].Prefix
	}
	s.byASN = buildASNView(s.infs)
	// Index every leaf prefix in a flat LPM trie: address lookups become
	// one short pointer-free descent instead of up to 25 map probes, and
	// they allocate nothing, so batch endpoints and utilization sweeps
	// can hit the snapshot at line rate. BuildLPM resolves duplicate
	// prefixes to the highest index, matching the last-write-wins
	// population order of the map this replaces.
	s.lpm = netutil.BuildLPM(ps)
	var buf bytes.Buffer
	report.Table1(&buf, res)
	s.table1 = buf.Bytes()
	return s
}

// Table1 returns the pre-rendered Markdown Table 1 for this snapshot —
// the same bytes report.Markdown embeds in the full report.
func (s *Snapshot) Table1() []byte { return s.table1 }

// FlatInferences exposes the snapshot's flat inference arena — every
// classification, contiguous, in All order — for the snapshot codec
// (internal/snapstore). Read-only: the arena is shared with every
// concurrent lookup.
func (s *Snapshot) FlatInferences() []core.Inference { return s.infs }

// LPM exposes the snapshot's flat longest-prefix-match index for the
// snapshot codec. Read-only.
func (s *Snapshot) LPM() *netutil.LPM { return s.lpm }

// ASNView exposes the snapshot's ASN index for the snapshot codec.
// Read-only.
func (s *Snapshot) ASNView() *ASNView { return s.byASN }

// Restored carries decoded snapshot sections into Restore. Every field
// is required except Backing.
type Restored struct {
	BuiltAt         time.Time
	Generation      uint64
	Provenance      string
	Dir             string
	Strict          bool
	Result          *core.Result // must carry the flat arena (core.ResultFromRuns)
	LPM             *netutil.LPM
	ByASNView       *ASNView // already validated (NewASNView)
	Table1          []byte
	Reports         []*diag.LoadReport
	SkippedAnalyses []string
	// Backing, when non-nil, owns the memory the decoded sections alias;
	// the snapshot takes over one reference to it (refcount 1 at birth)
	// and releases it when its own last reference drops. It also labels
	// the snapshot: LoadModeMmap with a backing, LoadModeHeap without.
	Backing Backing
}

// Restore assembles a servable Snapshot from already-decoded sections
// without re-running any build step: no BuildLPM, no report.Table1, no
// classification. This is the contract that makes snapshot cold starts
// O(bytes) instead of O(world) — the decoded sections ARE the serving
// indexes. The parts must have been produced from one consistent
// snapshot (the snapshot codec's checksums guarantee that); Restore
// still refuses structurally impossible combinations rather than serve
// from them.
func Restore(parts Restored) (*Snapshot, error) {
	if parts.Result == nil || parts.LPM == nil || parts.ByASNView == nil {
		return nil, errors.New("serve: restore needs a result, an LPM index and an ASN index")
	}
	s := &Snapshot{
		BuiltAt:         parts.BuiltAt,
		Generation:      parts.Generation,
		Provenance:      parts.Provenance,
		Dir:             parts.Dir,
		Strict:          parts.Strict,
		Result:          parts.Result,
		Reports:         parts.Reports,
		SkippedAnalyses: parts.SkippedAnalyses,
		table1:          parts.Table1,
		infs:            parts.Result.Flat(),
		lpm:             parts.LPM,
		byASN:           parts.ByASNView,
		backing:         parts.Backing,
		loadMode:        LoadModeHeap,
	}
	if s.backing != nil {
		s.loadMode = LoadModeMmap
		// The creation reference: whoever restored the snapshot owns it
		// until the serving swap takes over (Server.Reload releases the
		// retired snapshot's reference after the swap).
		s.refs.Store(1)
	}
	return s, nil
}

// LookupPrefix returns the classification of an exact leaf prefix, or
// nil if the snapshot has none.
func (s *Snapshot) LookupPrefix(p netutil.Prefix) *core.Inference {
	if i, ok := s.lpm.LookupExact(p); ok {
		return &s.infs[i]
	}
	return nil
}

// LookupAddr returns the longest-prefix-match classification covering a
// single address, or nil if no classified leaf covers it. The lookup is
// a short descent over the snapshot's flat LPM index: O(tree depth),
// zero allocation, safe under arbitrary concurrency.
func (s *Snapshot) LookupAddr(a netutil.Addr) *core.Inference {
	if i, ok := s.lpm.Lookup(a); ok {
		return &s.infs[i]
	}
	return nil
}

// LookupAddrs classifies a batch of addresses, appending one result per
// address (nil where nothing matches) to dst and returning it. Only dst
// may grow: the per-address work is the same allocation-free descent as
// LookupAddr, so callers that reuse dst across batches amortize to zero
// allocation.
func (s *Snapshot) LookupAddrs(dst []*core.Inference, addrs []netutil.Addr) []*core.Inference {
	if cap(dst)-len(dst) < len(addrs) {
		grown := make([]*core.Inference, len(dst), len(dst)+len(addrs))
		copy(grown, dst)
		dst = grown
	}
	// Chunk through a stack buffer so the LPM descent runs batched (node
	// array hoisted out of the per-address loop) while this path stays
	// allocation-free at any batch size.
	var buf [512]int32
	for len(addrs) > 0 {
		chunk := addrs
		if len(chunk) > len(buf) {
			chunk = chunk[:len(buf)]
		}
		for _, i := range s.lpm.LookupAddrs(buf[:0], chunk) {
			if i >= 0 {
				dst = append(dst, &s.infs[i])
			} else {
				dst = append(dst, nil)
			}
		}
		addrs = addrs[len(chunk):]
	}
	return dst
}

// LookupASN returns every classified leaf prefix originated by the ASN,
// in the result's registry-then-prefix order.
func (s *Snapshot) LookupASN(asn uint32) []*core.Inference {
	idx := s.byASN.Lookup(asn)
	if len(idx) == 0 {
		return nil
	}
	out := make([]*core.Inference, len(idx))
	for i, j := range idx {
		out[i] = &s.infs[j]
	}
	return out
}

// NumInferences returns the number of classified leaves in the snapshot.
func (s *Snapshot) NumInferences() int { return len(s.infs) }

// InferenceView is the JSON shape of one classification, stable across
// snapshots so clients can diff responses between reloads.
type InferenceView struct {
	Registry     string   `json:"registry"`
	Prefix       string   `json:"prefix"`
	Category     string   `json:"category"`
	Group        int      `json:"group"`
	Leased       bool     `json:"leased"`
	Root         string   `json:"root,omitempty"`
	HolderOrg    string   `json:"holder_org,omitempty"`
	RootASNs     []uint32 `json:"root_asns,omitempty"`
	RootOrigins  []uint32 `json:"root_origins,omitempty"`
	LeafOrigins  []uint32 `json:"leaf_origins,omitempty"`
	Facilitators []string `json:"facilitators,omitempty"`
	NetName      string   `json:"netname,omitempty"`
	Country      string   `json:"country,omitempty"`
}

// View renders one inference in the stable JSON shape.
func View(inf *core.Inference) *InferenceView {
	if inf == nil {
		return nil
	}
	v := &InferenceView{
		Registry:     inf.Registry.String(),
		Category:     inf.Category.String(),
		Group:        inf.Category.Group(),
		Leased:       inf.Category.Leased(),
		Prefix:       inf.Prefix.String(),
		HolderOrg:    inf.HolderOrg,
		RootASNs:     inf.RootASNs,
		RootOrigins:  inf.RootOrigins,
		LeafOrigins:  inf.LeafOrigins,
		Facilitators: inf.Facilitators,
		NetName:      inf.NetName,
		Country:      inf.Country,
	}
	if inf.Category != core.Orphan {
		v.Root = inf.Root.String()
	}
	return v
}

// LoadReportView is the JSON shape of one source's load accounting.
type LoadReportView struct {
	Source    string  `json:"source"`
	File      string  `json:"file,omitempty"`
	Parsed    int     `json:"parsed"`
	Skipped   int     `json:"skipped"`
	Bytes     int64   `json:"bytes,omitempty"`
	Missing   bool    `json:"missing"`
	Truncated bool    `json:"truncated"`
	ErrorRate float64 `json:"error_rate"`
}

// ReportViews renders the snapshot's per-source accounting.
func (s *Snapshot) ReportViews() []LoadReportView {
	out := make([]LoadReportView, 0, len(s.Reports))
	for _, r := range s.Reports {
		if r == nil {
			continue
		}
		out = append(out, LoadReportView{
			Source:    r.Source,
			File:      r.File,
			Parsed:    r.Parsed,
			Skipped:   r.Skipped,
			Bytes:     r.Bytes,
			Missing:   r.Missing,
			Truncated: r.Truncated,
			ErrorRate: r.ErrorRate(),
		})
	}
	return out
}
