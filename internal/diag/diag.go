// Package diag provides the load-diagnostics substrate shared by every
// dataset parser: typed record-level errors, per-source load reports, and
// the strict/lenient policy that decides whether a malformed record aborts
// the load or is skipped and accounted for.
//
// Real-world snapshots of the feeds the paper ingests — five WHOIS
// dialects, MRT RIB dumps, RPKI VRP archives, geofeeds, abuse lists — are
// routinely messy: truncated transfers, garbage lines, malformed ranges.
// Operational measurement platforms degrade gracefully over such input
// (cf. BGPStream's tolerant MRT processing); this package lets our loaders
// do the same while surfacing exactly what was skipped. Strict mode keeps
// the historical fail-fast contract: the first malformed record is a load
// error.
package diag

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// LoadError locates one malformed record in an input source.
type LoadError struct {
	Source string // logical source name, e.g. "whois/RIPE" or "rpki"
	File   string // file path when known ("" otherwise)
	Record int    // 1-based record or line number within the file (0 unknown)
	Offset int64  // byte offset within the file where known (-1 unknown)
	Err    error  // the underlying parse error
}

// Error renders the full location chain.
func (e *LoadError) Error() string {
	var b strings.Builder
	b.WriteString(e.Source)
	if e.File != "" {
		fmt.Fprintf(&b, ": %s", e.File)
	}
	if e.Record > 0 {
		fmt.Fprintf(&b, ": record %d", e.Record)
	}
	if e.Offset >= 0 {
		fmt.Fprintf(&b, ": offset %d", e.Offset)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

// Unwrap exposes the underlying parse error to errors.Is / errors.As.
func (e *LoadError) Unwrap() error { return e.Err }

// ErrErrorRate is the lenient-mode circuit breaker: wrapped by the error
// returned when a source's malformed-record rate exceeds
// LoadOptions.MaxErrorRate. A source that is mostly garbage is more likely
// a wrong or rotten file than a noisy one, and silently loading its few
// parseable records would be worse than failing.
var ErrErrorRate = errors.New("diag: malformed-record rate exceeds limit")

// Defaults for the zero LoadOptions in lenient mode.
const (
	// DefaultMaxErrorRate aborts a lenient load once more than half of a
	// source's records are malformed.
	DefaultMaxErrorRate = 0.5
	// DefaultMaxErrorSamples caps the LoadError samples kept per source.
	DefaultMaxErrorSamples = 8
	// breakerMinRecords arms the circuit breaker only after this many
	// records have been seen, so a handful of bad leading lines cannot
	// trip it before the source has had a chance to parse.
	breakerMinRecords = 16
)

// LoadOptions selects the ingestion policy threaded through every loader.
// The zero value is lenient with default limits.
type LoadOptions struct {
	// Strict restores the historical fail-fast behavior: the first
	// malformed record aborts the load with the parser's original error.
	Strict bool
	// MaxErrorRate is the lenient-mode circuit breaker threshold in
	// (0, 1]; 0 means DefaultMaxErrorRate. A negative value disables the
	// breaker entirely.
	MaxErrorRate float64
	// MaxErrorSamples caps the LoadError samples retained per source;
	// 0 means DefaultMaxErrorSamples. Skip counting is never capped.
	MaxErrorSamples int
	// OnError, when non-nil, observes every skipped record as it happens
	// (lenient mode only). Useful for logging pipelines; must not retain
	// the error's Err past the call if the parser reuses buffers.
	OnError func(*LoadError)
}

// Strict returns the fail-fast options.
func Strict() LoadOptions { return LoadOptions{Strict: true} }

// Lenient returns the default skip-and-account options.
func Lenient() LoadOptions { return LoadOptions{} }

// maxErrorRate resolves the effective breaker threshold: the documented
// default for the zero value, the configured value otherwise (negative
// disables the breaker). Resolving at use time — not only in
// NewCollector — means a zero-value Collector gets the same policy as a
// constructed one instead of a silently disabled breaker.
func (o *LoadOptions) maxErrorRate() float64 {
	if o.MaxErrorRate == 0 {
		return DefaultMaxErrorRate
	}
	return o.MaxErrorRate
}

// maxErrorSamples resolves the effective sample cap, defaulting the zero
// value.
func (o *LoadOptions) maxErrorSamples() int {
	if o.MaxErrorSamples == 0 {
		return DefaultMaxErrorSamples
	}
	return o.MaxErrorSamples
}

// LoadReport is one source's ingestion accounting.
type LoadReport struct {
	Source string // logical source name
	File   string // representative file or directory path
	// Parsed counts records loaded successfully.
	Parsed int
	// Skipped counts malformed records dropped in lenient mode.
	Skipped int
	// Bytes counts input bytes consumed from the source, where the
	// parser (or a CountReader wrapper) accounts them; 0 when unknown.
	Bytes int64
	// Missing marks a source whose file or directory was absent.
	Missing bool
	// Truncated marks a stream that ended mid-record; everything decoded
	// before the cut was kept (MRT partial-table semantics).
	Truncated bool
	// ErrorSamples holds the first MaxErrorSamples skip errors.
	ErrorSamples []*LoadError
}

// Clean reports whether the source loaded completely: present, nothing
// skipped, not truncated.
func (r *LoadReport) Clean() bool {
	return !r.Missing && !r.Truncated && r.Skipped == 0
}

// ErrorRate returns Skipped / (Parsed + Skipped), 0 for an empty source.
func (r *LoadReport) ErrorRate() float64 {
	total := r.Parsed + r.Skipped
	if total == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(total)
}

// String renders a one-line summary, e.g.
//
//	whois/RIPE: 1204 parsed, 3 skipped (0.2%)
//	rpki: missing
func (r *LoadReport) String() string {
	var b strings.Builder
	b.WriteString(r.Source)
	b.WriteString(": ")
	switch {
	case r.Missing:
		b.WriteString("missing")
	default:
		fmt.Fprintf(&b, "%d parsed", r.Parsed)
		if r.Skipped > 0 {
			fmt.Fprintf(&b, ", %d skipped (%.1f%%)", r.Skipped, 100*r.ErrorRate())
		}
		if r.Truncated {
			b.WriteString(", truncated")
		}
	}
	return b.String()
}

// Collector threads LoadOptions through a parser and accumulates that
// source's LoadReport. A nil *Collector is valid and behaves as strict
// mode with no accounting, so pre-existing strict entry points can call
// the instrumented parsers with nil and keep byte-identical behavior.
//
// A Collector is safe for concurrent use: parsers may account records
// from multiple goroutines, and Report may be called while parsing is
// still in flight — it returns a consistent point-in-time copy. This
// matters for a serving daemon whose hot reload builds parsers in
// parallel with live traffic reading the previous load's reports. The
// one thing the mutex cannot give is cross-record ordering: under
// concurrent Skip calls the circuit breaker trips on whichever call
// pushes the rate over the limit first.
//
// The parsed count, bumped once per record by every parser, is an
// atomic outside the mutex; Skip and Report read it.
type Collector struct {
	mu     sync.Mutex
	opts   LoadOptions
	rep    LoadReport // Parsed stays 0; Report fills it from parsed
	parsed atomic.Int64
}

// NewCollector returns a collector for the named source. Zero option
// fields resolve to the documented defaults at use time, so a zero-value
// Collector (not built here) behaves identically.
func NewCollector(source string, opts LoadOptions) *Collector {
	return &Collector{opts: opts, rep: LoadReport{Source: source}}
}

// Strict reports whether malformed records must abort the load. The nil
// collector is strict.
func (c *Collector) Strict() bool { return c == nil || c.opts.Strict }

// SetFile records the file currently being parsed; subsequent errors are
// attributed to it.
func (c *Collector) SetFile(file string) {
	if c != nil {
		c.mu.Lock()
		c.rep.File = file
		c.mu.Unlock()
	}
}

// Parsed counts one successfully loaded record.
func (c *Collector) Parsed() {
	if c != nil {
		c.parsed.Add(1)
	}
}

// AddParsed counts n successfully loaded records.
func (c *Collector) AddParsed(n int) {
	if c != nil {
		c.parsed.Add(int64(n))
	}
}

// MarkMissing flags the source as absent.
func (c *Collector) MarkMissing() {
	if c != nil {
		c.mu.Lock()
		c.rep.Missing = true
		c.mu.Unlock()
	}
}

// Skip decides the fate of one malformed record. In strict mode (nil
// collector included) it returns err unchanged so the caller aborts with
// the parser's original error. In lenient mode it accounts the skip,
// samples the error, notifies OnError, and returns nil — unless the
// malformed-record rate trips the circuit breaker, in which case it
// returns an error wrapping ErrErrorRate.
func (c *Collector) Skip(record int, offset int64, err error) error {
	if c == nil || c.opts.Strict {
		return err
	}
	c.mu.Lock()
	le := &LoadError{
		Source: c.rep.Source,
		File:   c.rep.File,
		Record: record,
		Offset: offset,
		Err:    err,
	}
	c.rep.Skipped++
	if len(c.rep.ErrorSamples) < c.opts.maxErrorSamples() {
		c.rep.ErrorSamples = append(c.rep.ErrorSamples, le)
	}
	total := int(c.parsed.Load()) + c.rep.Skipped
	skipped := c.rep.Skipped
	// total >= breakerMinRecords (and Skipped just incremented) keeps the
	// rate division well-defined; limit <= 0 disables the breaker.
	limit := c.opts.maxErrorRate()
	tripped := limit > 0 && total >= breakerMinRecords &&
		float64(skipped)/float64(total) > limit
	c.mu.Unlock()
	// The callback runs unlocked so an observer may call back into the
	// collector (e.g. Report for a progress line) without deadlocking.
	if c.opts.OnError != nil {
		c.opts.OnError(le)
	}
	if tripped {
		return fmt.Errorf("%w: %s: %d of %d records malformed (last: %v)",
			ErrErrorRate, c.rep.Source, skipped, total, err)
	}
	return nil
}

// Truncate records a stream that ended mid-record. In strict mode it
// returns err unchanged; in lenient mode it marks the report truncated,
// samples the error, and returns nil so the caller keeps the partial data
// decoded so far.
func (c *Collector) Truncate(offset int64, err error) error {
	if c == nil || c.opts.Strict {
		return err
	}
	c.mu.Lock()
	c.rep.Truncated = true
	le := &LoadError{
		Source: c.rep.Source,
		File:   c.rep.File,
		Offset: offset,
		Err:    err,
	}
	if len(c.rep.ErrorSamples) < c.opts.maxErrorSamples() {
		c.rep.ErrorSamples = append(c.rep.ErrorSamples, le)
	}
	c.mu.Unlock()
	if c.opts.OnError != nil {
		c.opts.OnError(le)
	}
	return nil
}

// AddBytes counts n input bytes consumed from the source.
func (c *Collector) AddBytes(n int64) {
	if c != nil && n > 0 {
		c.mu.Lock()
		c.rep.Bytes += n
		c.mu.Unlock()
	}
}

// Report returns a point-in-time copy of the accumulated report. It is
// safe to call while other goroutines are still accounting records; the
// copy never changes afterwards. The nil collector returns nil.
func (c *Collector) Report() *LoadReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	rep := c.rep
	rep.Parsed = int(c.parsed.Load())
	rep.ErrorSamples = append([]*LoadError(nil), c.rep.ErrorSamples...)
	c.mu.Unlock()
	return &rep
}
