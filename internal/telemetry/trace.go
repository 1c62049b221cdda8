package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one run's span tree: a root span covering the whole run and
// nested child spans covering its stages (whois parse, RIB load,
// classification, ...). Spans are cheap — a timestamp pair, two atomic
// counters, and a slice append under a small mutex — and safe to start
// and end from concurrent goroutines, which the parallel dataset loader
// does. Code that is not being traced pays one context lookup: StartSpan
// on a context without a trace returns a nil *Span whose methods are
// no-ops, mirroring the nil *diag.Collector convention.
type Trace struct {
	root *Span
	now  func() time.Time // test hook; time.Now outside tests
	ids  *IDGen

	idMu   sync.Mutex
	id     TraceID
	parent SpanID // remote parent span ID, when adopted off the wire
}

// defaultIDGen mints IDs for traces created outside a TracePlane
// (leaseinfer's -trace flag, tests); clock-seeded once per process.
var defaultIDGen = NewIDGen(0)

// NewTrace starts a trace whose root span is named name.
func NewTrace(name string) *Trace {
	return NewTraceWithIDs(name, nil)
}

// NewTraceWithIDs starts a trace minting its trace and span IDs from
// ids (nil uses a process-wide clock-seeded generator).
func NewTraceWithIDs(name string, ids *IDGen) *Trace {
	if ids == nil {
		ids = defaultIDGen
	}
	t := &Trace{now: time.Now, ids: ids, id: ids.TraceID()}
	t.root = &Span{tr: t, name: name, id: ids.SpanID(), start: t.now()}
	return t
}

// ID returns the trace's 128-bit identity.
func (t *Trace) ID() TraceID {
	t.idMu.Lock()
	defer t.idMu.Unlock()
	return t.id
}

// AdoptRemoteParent re-identifies the trace as a continuation of the
// remote span context sc: the trace takes sc's trace ID and records
// sc's span ID as the root span's parent. Span IDs minted locally are
// kept. The replaced local trace ID is recorded as a root attribute so
// orphaned references (e.g. a traceparent already emitted on an
// outbound hop) stay explicable.
func (t *Trace) AdoptRemoteParent(sc SpanContext) {
	if t == nil || sc.TraceID.IsZero() {
		return
	}
	t.idMu.Lock()
	old := t.id
	t.id = sc.TraceID
	t.parent = sc.SpanID
	t.idMu.Unlock()
	if old != sc.TraceID {
		t.root.SetAttr("trace.replaced_id", old.String())
	}
}

// AdoptRemoteParent re-identifies the trace carried by ctx (if any) as
// a continuation of sc. It reports whether a trace was adopted.
func AdoptRemoteParent(ctx context.Context, sc SpanContext) bool {
	s := SpanFrom(ctx)
	if s == nil || s.tr == nil {
		return false
	}
	s.tr.AdoptRemoteParent(sc)
	return true
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span { return t.root }

// End ends the root span (child spans still running keep their own
// clocks; see Span.End).
func (t *Trace) End() { t.root.End() }

// spanKey is the context key carrying the current span.
type spanKey struct{}

// Context returns ctx carrying the trace's root span, the ambient parent
// for StartSpan calls below it.
func (t *Trace) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, t.root)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child span of the span carried by ctx and returns a
// derived context carrying the child. When ctx carries no span (the run
// is not being traced) it returns ctx unchanged and a nil span whose
// methods are no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return context.WithValue(ctx, spanKey{}, child), child
}

// Span is one timed stage. All methods are safe on a nil receiver and
// for concurrent use.
type Span struct {
	tr    *Trace
	name  string
	id    SpanID
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    map[string]string
	children []*Span

	records atomic.Int64
	bytes   atomic.Int64
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartChild starts and returns a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{tr: s.tr, name: name, id: s.tr.ids.SpanID(), start: s.tr.now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// SpanContext returns the span's wire identity (Sampled set: a span
// only exists on a trace that was kept). Zero on a nil span.
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tr.ID(), SpanID: s.id, Sampled: true}
}

// Traceparent renders the span's wire identity as a W3C traceparent
// header value, or "" on a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return s.SpanContext().Traceparent()
}

// End stamps the span's end time. Ending twice keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// AddRecords adds to the span's processed-record count.
func (s *Span) AddRecords(n int64) {
	if s != nil {
		s.records.Add(n)
	}
}

// AddBytes adds to the span's processed-byte count.
func (s *Span) AddBytes(n int64) {
	if s != nil {
		s.bytes.Add(n)
	}
}

// SetAttr attaches one string attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Duration returns the span's length so far: end minus start, or
// now minus start for a still-running span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		end = s.tr.now()
	}
	return end.Sub(s.start)
}

// SpanNode is the JSON shape of one span in a trace dump. DurationMS of
// a parent is wall-clock, not the sum of children: parallel children
// overlap, and sequential pipelines leave (small) untraced gaps, so
// SelfMS makes the gap explicit instead of hiding it.
type SpanNode struct {
	Name         string            `json:"name"`
	TraceID      string            `json:"trace_id,omitempty"` // root node only
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Start        time.Time         `json:"start"`
	DurationMS   float64           `json:"duration_ms"`
	SelfMS       float64           `json:"self_ms"`
	Records      int64             `json:"records,omitempty"`
	Bytes        int64             `json:"bytes,omitempty"`
	Unfinished   bool              `json:"unfinished,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Children     []*SpanNode       `json:"children,omitempty"`
}

// node snapshots the span subtree. Children are ordered by start time,
// then name, then insertion order — deterministic for a quiescent trace
// even when the children were appended from racing goroutines.
func (s *Span) node() *SpanNode {
	s.mu.Lock()
	end := s.end
	attrs := make(map[string]string, len(s.attrs))
	for k, v := range s.attrs {
		attrs[k] = v
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	n := &SpanNode{
		Name:    s.name,
		Start:   s.start,
		Records: s.records.Load(),
		Bytes:   s.bytes.Load(),
	}
	if !s.id.IsZero() {
		n.SpanID = s.id.String()
	}
	if len(attrs) > 0 {
		n.Attrs = attrs
	}
	if end.IsZero() {
		n.Unfinished = true
		end = s.tr.now()
	}
	n.DurationMS = durationMS(end.Sub(s.start))

	type ordered struct {
		idx  int
		span *Span
	}
	ord := make([]ordered, len(children))
	for i, c := range children {
		ord[i] = ordered{i, c}
	}
	sort.SliceStable(ord, func(i, j int) bool {
		a, b := ord[i].span, ord[j].span
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return ord[i].idx < ord[j].idx
	})
	var childMS float64
	for _, o := range ord {
		cn := o.span.node()
		cn.ParentSpanID = n.SpanID
		childMS += cn.DurationMS
		n.Children = append(n.Children, cn)
	}
	n.SelfMS = n.DurationMS - childMS
	if n.SelfMS < 0 {
		n.SelfMS = 0 // parallel children can sum past wall-clock
	}
	return n
}

func durationMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// Tree snapshots the whole trace as a SpanNode tree. The root node
// carries the trace ID and — when the trace was adopted off the wire —
// the remote parent's span ID.
func (t *Trace) Tree() *SpanNode {
	n := t.root.node()
	t.idMu.Lock()
	id, parent := t.id, t.parent
	t.idMu.Unlock()
	if !id.IsZero() {
		n.TraceID = id.String()
	}
	if !parent.IsZero() {
		n.ParentSpanID = parent.String()
	}
	return n
}

// WriteJSON renders the trace tree as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Tree())
}
