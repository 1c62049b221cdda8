// Package rpsl scans and writes the blank-line-separated "attribute:
// value" objects of the RIR WHOIS bulk dumps (RFC 2622 syntax as the
// RIRs deploy it). All three dialects sit on it: RPSL proper (RIPE,
// APNIC, AFRINIC), ARIN's bulk WHOIS and LACNIC's dump share this
// surface grammar and differ only in their vocabularies.
//
// An object is a sequence of "attribute: value" lines ended by a blank
// line; a line beginning with whitespace or '+' continues the previous
// attribute's value, and '#' starts a comment that runs to the end of
// the line. The first attribute of an object names its class (inetnum,
// aut-num, organisation, mntner, NetHandle, ...).
//
// The scan contract:
//
//   - One read per dump. A Scanner works in place on the whole dump
//     held as a []byte, splitting lines with bytes.IndexByte and
//     copying nothing.
//   - A keep-set per dialect. Each loader declares, in a Keep, the
//     classes and attributes it reads. Every line of every object is
//     still checked, with the same errors and line numbers, but values
//     of anything else are never built.
//   - Interning only for repeating values. Loaders intern status and
//     country codes, maintainer and organisation handles through
//     Scanner.Intern and copy unique values, such as names, once;
//     ranges and numbers are parsed from the bytes.
//   - No string aliases the buffer. Every string a loader keeps is a
//     copy, so the dump is garbage as soon as its parse returns.
//   - Records in slabs. Loaders allocate their records through Slab,
//     one allocation per chunk of records rather than per record.
//
// Object and Writer render objects back into dump form for the
// dialects' writers.
package rpsl

import (
	"io"
	"strings"
)

// Attribute is a single attribute of an RPSL object. Repeated attributes
// (e.g. multiple mnt-by lines) are preserved in order.
type Attribute struct {
	Name  string // lower-cased attribute name, e.g. "inetnum"
	Value string // value with comments stripped and continuations joined
}

// Object is one object to write: an ordered list of attributes. The
// first attribute determines the object's class and primary key.
type Object struct {
	Attributes []Attribute
}

// Add appends an attribute.
func (o *Object) Add(name, value string) {
	o.Attributes = append(o.Attributes, Attribute{Name: strings.ToLower(name), Value: value})
}

// String renders the object in RPSL dump format, one attribute per line,
// with the canonical column-aligned "name:" field.
func (o *Object) String() string {
	var b strings.Builder
	for _, a := range o.Attributes {
		b.WriteString(a.Name)
		b.WriteByte(':')
		pad := 16 - len(a.Name) - 1
		if pad < 1 {
			pad = 1
		}
		for i := 0; i < pad; i++ {
			b.WriteByte(' ')
		}
		b.WriteString(a.Value)
		b.WriteByte('\n')
	}
	return b.String()
}

// Writer encodes RPSL objects separated by blank lines.
type Writer struct {
	w   io.Writer
	n   int
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write emits one object. Objects are separated by a single blank line.
func (w *Writer) Write(o *Object) error {
	if w.err != nil {
		return w.err
	}
	if w.n > 0 {
		if _, w.err = io.WriteString(w.w, "\n"); w.err != nil {
			return w.err
		}
	}
	if _, w.err = io.WriteString(w.w, o.String()); w.err != nil {
		return w.err
	}
	w.n++
	return nil
}
