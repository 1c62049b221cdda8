// Package arinwhois reads and writes the ARIN bulk-WHOIS dialect.
//
// ARIN's bulk WHOIS is distributed as blank-line-separated records of
// "Key: Value" lines, the same surface grammar as RPSL but with ARIN's own
// vocabulary: network records keyed by NetHandle with a NetRange and a
// NetType, AS records keyed by ASHandle, and organisation records keyed by
// OrgID. This package decodes those records into typed structs through
// rpsl's scanner, with its own keep-set, and encodes them back with
// rpsl's writer.
package arinwhois

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/rpsl"
)

// NetType values observed in ARIN bulk WHOIS that matter for portability
// classification (paper §2.1).
const (
	NetTypeDirectAllocation = "Direct Allocation"
	NetTypeDirectAssignment = "Direct Assignment"
	NetTypeReallocation     = "Reallocation"
	NetTypeReassignment     = "Reassignment"
	NetTypeLegacy           = "Legacy"
)

// Net is an ARIN network record (NetHandle object).
type Net struct {
	Handle  string        // NetHandle, e.g. NET-192-0-2-0-1
	OrgID   string        // OrgID of the registrant
	Parent  string        // parent NetHandle, "" for top-level
	Name    string        // NetName
	Range   netutil.Range // NetRange
	Type    string        // NetType (see constants)
	RegDate string        // registration date, YYYY-MM-DD (informational)
	Country string        // Country (ISO 3166-1 alpha-2)
}

// AS is an ARIN autonomous-system record (ASHandle object).
type AS struct {
	Handle string // ASHandle, e.g. AS64500
	Number uint32 // ASNumber
	OrgID  string
	Name   string // ASName
}

// Org is an ARIN organisation record (OrgID object).
type Org struct {
	ID      string // OrgID
	Name    string // OrgName
	Country string // Country (ISO 3166-1 alpha-2)
}

// Database is the parsed content of an ARIN bulk-WHOIS dump.
type Database struct {
	Nets []*Net
	ASes []*AS
	Orgs []*Org
}

// Parse decodes an ARIN bulk-WHOIS dump held in memory. Records of
// unknown classes are skipped; malformed known records are an error.
func Parse(data []byte) (*Database, error) {
	return ParseWith(data, nil)
}

// The record classes and attributes Parse reads. The scanner checks every
// other line but builds nothing from it.
const (
	classNet = iota
	classAS
	classOrg
)

const (
	attrOrgID = iota
	attrParent
	attrNetName
	attrNetType
	attrRegDate
	attrCountry
	attrNetRange
	attrASName
	attrASNumber
	attrOrgName
)

var keep = rpsl.Keep{
	Class: func(name []byte) int {
		switch string(name) {
		case "nethandle":
			return classNet
		case "ashandle":
			return classAS
		case "orgid":
			return classOrg
		}
		return -1
	},
	Attr: func(name []byte) int {
		switch string(name) {
		case "orgid":
			return attrOrgID
		case "parent":
			return attrParent
		case "netname":
			return attrNetName
		case "nettype":
			return attrNetType
		case "regdate":
			return attrRegDate
		case "country":
			return attrCountry
		case "netrange":
			return attrNetRange
		case "asname":
			return attrASName
		case "asnumber":
			return attrASNumber
		case "orgname":
			return attrOrgName
		}
		return -1
	},
}

// ParseWith is Parse threaded through a load-diagnostics collector. A nil
// collector (or strict options) keeps Parse's fail-fast behavior; in
// lenient mode malformed lines and records are skipped and accounted.
func ParseWith(data []byte, c *diag.Collector) (*Database, error) {
	s := rpsl.NewScanner(data, keep)
	if !c.Strict() {
		s.OnBadLine = func(line int, err error) error {
			return c.Skip(line, -1, err)
		}
	}
	var (
		nets rpsl.Slab[Net]
		ases rpsl.Slab[AS]
		orgs rpsl.Slab[Org]
	)
	for i := 0; ; i++ {
		o, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("arinwhois: %w", err)
		}
		switch o.Class {
		case classNet:
			n, err := netFromRecord(s, o)
			if err != nil {
				if err := c.Skip(i, -1, fmt.Errorf("arinwhois: record %d: %w", i, err)); err != nil {
					return nil, err
				}
				continue
			}
			*nets.New() = n
		case classAS:
			a, err := asFromRecord(s, o)
			if err != nil {
				if err := c.Skip(i, -1, fmt.Errorf("arinwhois: record %d: %w", i, err)); err != nil {
					return nil, err
				}
				continue
			}
			*ases.New() = a
		case classOrg:
			g, err := orgFromRecord(s, o)
			if err != nil {
				if err := c.Skip(i, -1, fmt.Errorf("arinwhois: record %d: %w", i, err)); err != nil {
					return nil, err
				}
				continue
			}
			*orgs.New() = g
		}
		c.Parsed()
	}
	return &Database{Nets: nets.All(), ASes: ases.All(), Orgs: orgs.All()}, nil
}

func netFromRecord(s *rpsl.Scanner, o *rpsl.Record) (Net, error) {
	n := Net{
		Handle:  string(o.Key()),
		OrgID:   s.Intern(o.Value(attrOrgID)),
		Parent:  s.Intern(o.Value(attrParent)),
		Name:    string(o.Value(attrNetName)),
		Type:    s.Intern(o.Value(attrNetType)),
		RegDate: string(o.Value(attrRegDate)),
		Country: s.Intern(o.Value(attrCountry)),
	}
	rng, ok := o.Get(attrNetRange)
	if !ok {
		return Net{}, fmt.Errorf("net %s: missing NetRange", n.Handle)
	}
	var err error
	n.Range, err = netutil.ParseRangeBytes(rng)
	if err != nil {
		return Net{}, fmt.Errorf("net %s: %w", n.Handle, err)
	}
	return n, nil
}

func asFromRecord(s *rpsl.Scanner, o *rpsl.Record) (AS, error) {
	a := AS{Handle: string(o.Key()), OrgID: s.Intern(o.Value(attrOrgID)), Name: string(o.Value(attrASName))}
	num, ok := o.Get(attrASNumber)
	if v, fast := rpsl.Uint32(num); ok && fast {
		a.Number = v
		return a, nil
	}
	numStr := string(num)
	if !ok {
		// Fall back to the handle ("AS64500").
		numStr = strings.TrimPrefix(strings.ToUpper(a.Handle), "AS")
	}
	v, err := strconv.ParseUint(strings.TrimSpace(numStr), 10, 32)
	if err != nil {
		return AS{}, fmt.Errorf("as %s: bad ASNumber %q", a.Handle, numStr)
	}
	a.Number = uint32(v)
	return a, nil
}

func orgFromRecord(s *rpsl.Scanner, o *rpsl.Record) (Org, error) {
	g := Org{ID: s.Intern(o.Key()), Name: string(o.Value(attrOrgName)), Country: s.Intern(o.Value(attrCountry))}
	if g.Name == "" {
		return Org{}, fmt.Errorf("org %s: missing OrgName", g.ID)
	}
	return g, nil
}

// Write encodes the database in bulk-WHOIS form: orgs, then ASes, then nets.
func Write(w io.Writer, db *Database) error {
	ww := rpsl.NewWriter(w)
	for _, g := range db.Orgs {
		o := &rpsl.Object{}
		o.Add("OrgID", g.ID)
		o.Add("OrgName", g.Name)
		if g.Country != "" {
			o.Add("Country", g.Country)
		}
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	for _, a := range db.ASes {
		o := &rpsl.Object{}
		o.Add("ASHandle", a.Handle)
		o.Add("ASNumber", strconv.FormatUint(uint64(a.Number), 10))
		if a.Name != "" {
			o.Add("ASName", a.Name)
		}
		if a.OrgID != "" {
			o.Add("OrgID", a.OrgID)
		}
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	for _, n := range db.Nets {
		o := &rpsl.Object{}
		o.Add("NetHandle", n.Handle)
		o.Add("NetRange", n.Range.String())
		if n.Name != "" {
			o.Add("NetName", n.Name)
		}
		if n.Type != "" {
			o.Add("NetType", n.Type)
		}
		if n.OrgID != "" {
			o.Add("OrgID", n.OrgID)
		}
		if n.Parent != "" {
			o.Add("Parent", n.Parent)
		}
		if n.RegDate != "" {
			o.Add("RegDate", n.RegDate)
		}
		if n.Country != "" {
			o.Add("Country", n.Country)
		}
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	return nil
}
