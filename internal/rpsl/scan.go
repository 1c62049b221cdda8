package rpsl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxLine is the longest line a dump may hold, its terminator excluded
// but a carriage return before it included. A longer line aborts the
// scan with ErrLineTooLong.
const MaxLine = 1<<20 - 1

// ErrLineTooLong aborts a scan at a line longer than MaxLine, in strict
// and lenient mode alike. It is bufio's own error, so the text a load
// reports is the one line-scanning dumps have always reported.
var ErrLineTooLong = bufio.ErrTooLong

// Keep declares the part of a dialect its loader reads. Both functions
// receive a lower-cased name and return the caller's id for it, or -1
// for a name nobody reads. Objects of a class Class rejects are still
// checked line by line and counted, but none of their values is built;
// attributes Attr rejects are checked and dropped with their
// continuation lines.
type Keep struct {
	Class func(name []byte) int
	Attr  func(name []byte) int
}

// Field is one kept attribute of a record: the caller's attribute id
// and the value, comments stripped and continuation lines joined.
type Field struct {
	Attr  int
	Value []byte
}

// Record is one object of a dump. Class is the caller's class id, or -1
// for a class nobody reads, in which case Fields is empty. Otherwise
// Fields[0] is the object's first attribute — its class line, whose
// value is the primary key — with Attr the class name's attribute id
// (-1 when the name is no kept attribute), followed by every kept
// attribute in dump order.
//
// A Record and its values are valid only until the next call to
// Scanner.Next; values may point into the dump itself.
type Record struct {
	Class  int
	Fields []Field
}

// Key returns the value of the object's class line, its primary key.
func (r *Record) Key() []byte {
	if len(r.Fields) == 0 {
		return nil
	}
	return r.Fields[0].Value
}

// Get returns the value of the first kept attribute with id attr and
// whether the object has one.
func (r *Record) Get(attr int) ([]byte, bool) {
	for i := range r.Fields {
		if r.Fields[i].Attr == attr {
			return r.Fields[i].Value, true
		}
	}
	return nil, false
}

// Value returns the value of the first kept attribute with id attr,
// empty when the object has none.
func (r *Record) Value(attr int) []byte {
	v, _ := r.Get(attr)
	return v
}

// Scanner splits a whole dump held in memory into records, in place.
//
// Lines end at '\n' with one trailing '\r' dropped; a last line without
// a newline still counts. A line that bytes.TrimSpace empties ends an
// object, and '#' and '%' lines between objects are skipped. Inside an
// object a line starting with '#' or '%' is a comment, one starting with
// a space, tab or '+' continues the previous attribute, and any other
// line must be "name: value" with a non-empty name free of blanks. Names
// are matched lower-cased, and a value is trimmed of white space and of
// a '#' comment.
type Scanner struct {
	// OnBadLine, when non-nil, is consulted for each malformed line with
	// its 1-based line number and the parse error, instead of aborting
	// the scan. Returning nil skips the line and continues the current
	// object — a skipped first line makes the next good attribute the
	// object's class — and returning an error aborts with it. A nil
	// OnBadLine keeps the strict contract: the first malformed line
	// fails Next. ErrLineTooLong always aborts.
	OnBadLine func(lineNum int, err error) error

	keep    Keep
	data    []byte
	off     int
	lineNum int
	err     error // sticky: ErrLineTooLong or io.EOF

	rec      Record
	hasAttr  bool // the current object has a good attribute line
	lastKept bool // its last attribute line is rec.Fields' last entry
	joined   int  // start in arena of the last field's value, or -1
	arena    []byte
	name     []byte
	strs     map[string]string
	recent   [256]string // Intern's last string per cache slot
}

// NewScanner returns a Scanner over a whole dump, reading what keep
// declares.
func NewScanner(data []byte, keep Keep) *Scanner {
	return &Scanner{keep: keep, data: data, strs: make(map[string]string)}
}

// Intern returns b as a string, sharing one copy among equal values.
// Loaders intern the values that repeat across a dump — status and
// country codes, maintainer and organisation handles — and copy the
// rest; either way no string aliases the dump.
func (s *Scanner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	// A direct-mapped cache in front of the map: repeats cluster, and a
	// compare costs less than a hash.
	slot := &s.recent[(len(b)*31+int(b[0])*7+int(b[len(b)-1]))&255]
	if *slot == string(b) {
		return *slot
	}
	v, ok := s.strs[string(b)]
	if !ok {
		v = string(b)
		s.strs[v] = v
	}
	*slot = v
	return v
}

// nextLine returns the next line without its terminator, false at the
// end of the dump.
func (s *Scanner) nextLine() ([]byte, bool) {
	if s.err != nil || s.off >= len(s.data) {
		return nil, false
	}
	rest := s.data[s.off:]
	line := rest
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		line = rest[:i]
		s.off += i + 1
	} else {
		s.off = len(s.data)
	}
	if len(line) > MaxLine {
		s.err = ErrLineTooLong
		return nil, false
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	s.lineNum++
	return line, true
}

// end returns the error that ends the scan once nextLine reports false.
func (s *Scanner) end() error {
	if s.err == nil {
		s.err = io.EOF
	}
	return s.err
}

// Next returns the next object holding at least one good attribute
// line, or io.EOF when the dump is exhausted.
func (s *Scanner) Next() (*Record, error) {
	for {
		// Skip blank and comment lines to the start of an object.
		var line []byte
		for {
			l, ok := s.nextLine()
			if !ok {
				return nil, s.end()
			}
			if t := trimLeft(l); len(t) != 0 && t[0] != '#' && t[0] != '%' {
				line = l
				break
			}
		}
		s.rec = Record{Class: -1, Fields: s.rec.Fields[:0]}
		s.hasAttr, s.lastKept, s.joined = false, false, -1
		s.arena = s.arena[:0]
		for {
			if err := s.line(line); err != nil {
				if s.OnBadLine == nil {
					return nil, err
				}
				if err := s.OnBadLine(s.lineNum, err); err != nil {
					return nil, err
				}
			}
			var ok bool
			if line, ok = s.nextLine(); !ok {
				if s.err != nil {
					return nil, s.err
				}
				break // the end of the dump ends its last object
			}
			if len(trimLeft(line)) == 0 {
				break
			}
		}
		if s.hasAttr {
			return &s.rec, nil
		}
		// Every line of this object was skipped: scan on.
	}
}

// line parses one non-blank line of the current object.
func (s *Scanner) line(line []byte) error {
	switch line[0] {
	case '#', '%':
		return nil
	case ' ', '\t', '+':
		if !s.hasAttr {
			return fmt.Errorf("rpsl: line %d: continuation with no attribute", s.lineNum)
		}
		if s.lastKept {
			s.continueValue(value(line[1:]))
		}
		return nil
	}
	// Find the colon and classify the name's bytes in one pass.
	var kinds byte
	colon := 0
	for colon < len(line) && line[colon] != ':' {
		kinds |= nameKind[line[colon]]
		colon++
	}
	if colon == 0 || colon == len(line) {
		return fmt.Errorf("rpsl: line %d: malformed attribute line %q", s.lineNum, line)
	}
	raw := line[:colon]
	if kinds&(space|wide) != 0 {
		// Blanks to trim or to reject, or bytes only Unicode reads.
		raw = bytes.TrimSpace(raw)
		kinds = 0
		for _, c := range raw {
			if c == ' ' || c == '\t' {
				return fmt.Errorf("rpsl: line %d: malformed attribute name %q", s.lineNum, raw)
			}
			kinds |= nameKind[c]
		}
	}
	first := !s.hasAttr
	s.hasAttr = true
	s.lastKept = false
	if !first && s.rec.Class < 0 {
		return nil // an object nobody reads: checked, not built
	}
	name := raw
	switch kinds & (upper | wide) {
	case upper | wide:
		name = bytes.ToLower(raw) // Unicode-aware, as the name match has always been
	case upper:
		s.name = append(s.name[:0], raw...)
		for i, c := range s.name {
			if 'A' <= c && c <= 'Z' {
				s.name[i] = c + 'a' - 'A'
			}
		}
		name = s.name
	}
	if first {
		if s.rec.Class = s.keep.Class(name); s.rec.Class < 0 {
			return nil
		}
		s.rec.Fields = append(s.rec.Fields, Field{Attr: s.keep.Attr(name), Value: value(line[colon+1:])})
	} else if id := s.keep.Attr(name); id >= 0 {
		s.rec.Fields = append(s.rec.Fields, Field{Attr: id, Value: value(line[colon+1:])})
	} else {
		return nil
	}
	s.lastKept, s.joined = true, -1
	return nil
}

// continueValue appends a continuation line's value to the last kept
// field, space-separated, building the joined value in the arena.
func (s *Scanner) continueValue(cont []byte) {
	if len(cont) == 0 {
		return
	}
	last := &s.rec.Fields[len(s.rec.Fields)-1]
	if len(last.Value) == 0 {
		last.Value, s.joined = cont, -1
		return
	}
	if s.joined < 0 {
		s.joined = len(s.arena)
		s.arena = append(s.arena, last.Value...)
	}
	s.arena = append(s.arena, ' ')
	s.arena = append(s.arena, cont...)
	last.Value = s.arena[s.joined:]
}

// Byte kinds of an attribute name, for the one-pass check in line.
const (
	space = 1 << iota // ASCII white space, which bytes.TrimSpace trims
	upper             // 'A' to 'Z'
	wide              // a byte of a multi-byte UTF-8 sequence
)

var nameKind = func() (k [256]byte) {
	for _, c := range []byte(" \t\n\v\f\r") {
		k[c] = space
	}
	for c := 'A'; c <= 'Z'; c++ {
		k[c] = upper
	}
	for c := utf8.RuneSelf; c < 256; c++ {
		k[c] = wide
	}
	return k
}()

// value returns an attribute value with its '#' comment and surrounding
// white space removed.
func value(b []byte) []byte {
	// Dumps pad values to a column: skip the padding a word at a time.
	for len(b) >= 8 && binary.LittleEndian.Uint64(b) == 0x2020202020202020 {
		b = b[8:]
	}
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	if i := bytes.IndexByte(b, '#'); i >= 0 {
		b = b[:i]
	}
	if n := len(b); n == 0 || nameKind[b[0]]&(space|wide) == 0 && nameKind[b[n-1]]&(space|wide) == 0 {
		return b // nothing bytes.TrimSpace would trim
	}
	return bytes.TrimSpace(b)
}

// trimLeft returns b without the leading white space bytes.TrimSpace
// removes.
func trimLeft(b []byte) []byte {
	for i, c := range b {
		if c >= utf8.RuneSelf {
			return bytes.TrimLeftFunc(b[i:], unicode.IsSpace)
		}
		if c != ' ' && (c < '\t' || c > '\r') {
			return b[i:]
		}
	}
	return nil
}

// Slab allocates a loader's records of one type in chunks, so a dump
// costs one allocation per chunk rather than one per record, and no
// record is copied once built. Chunks double from 64 up to 4,096
// records, which bounds the unused tail of the last one.
type Slab[T any] struct {
	free []T
	next int  // size of the next chunk
	all  []*T // every record handed out, in order
}

// New returns a new zero record.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.next = min(max(64, 2*s.next), 4096)
		s.free = make([]T, s.next)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	s.all = append(s.all, p)
	return p
}

// All returns every record New handed out, in order; nil for none.
func (s *Slab[T]) All() []*T { return s.all }

// Uint32 returns b as a base-10 uint32 when it is 1–10 ASCII digits
// whose value fits: exactly the inputs strconv.ParseUint(string(b), 10,
// 32) accepts, without building the string.
func Uint32(b []byte) (uint32, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return uint32(v), v <= 1<<32-1
}

// ParseAutNum parses an aut-num key such as "AS64500" exactly as
// strconv.ParseUint(strings.TrimPrefix(strings.ToUpper(key), "AS"), 10,
// 32) does, errors included, building strings only for a key it cannot
// take on the fast path.
func ParseAutNum(key []byte) (uint32, error) {
	b := key
	if len(b) >= 2 && (b[0]|0x20) == 'a' && (b[1]|0x20) == 's' {
		b = b[2:]
	}
	if v, ok := Uint32(b); ok {
		return v, nil
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.ToUpper(string(key)), "AS"), 10, 32)
	return uint32(v), err
}
