// Package lacnicwhois reads and writes the LACNIC bulk-WHOIS dialect.
//
// LACNIC's dump differs from the RPSL registries in two relevant ways
// (paper §5.1): address blocks are written in CIDR notation rather than
// ranges, and there are no standalone organisation objects — the holder is
// embedded in each block's owner / ownerid fields. AS number objects carry
// the owner the same way.
package lacnicwhois

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ipleasing/internal/diag"
	"ipleasing/internal/netutil"
	"ipleasing/internal/rpsl"
)

// Block statuses used by the LACNIC dump. Reallocated / reassigned blocks
// are the non-portable space the leasing inference inspects.
const (
	StatusAllocated   = "allocated"
	StatusAssigned    = "assigned"
	StatusReallocated = "reallocated"
	StatusReassigned  = "reassigned"
)

// Block is a LACNIC inetnum object.
type Block struct {
	Prefix  netutil.Prefix
	Status  string // one of the Status constants
	Owner   string // organisation display name
	OwnerID string // registry handle for the owner
	Country string
}

// ASN is a LACNIC aut-num object.
type ASN struct {
	Number  uint32
	Owner   string
	OwnerID string
}

// Database is the parsed content of a LACNIC dump.
type Database struct {
	Blocks []*Block
	ASNs   []*ASN
}

// Parse decodes a LACNIC bulk-WHOIS dump held in memory.
func Parse(data []byte) (*Database, error) {
	return ParseWith(data, nil)
}

// The object classes and attributes Parse reads. The scanner checks every
// other line but builds nothing from it.
const (
	classBlock = iota
	classASN
)

const (
	attrStatus = iota
	attrOwner
	attrOwnerID
	attrCountry
)

var keep = rpsl.Keep{
	Class: func(name []byte) int {
		switch string(name) {
		case "inetnum":
			return classBlock
		case "aut-num":
			return classASN
		}
		return -1
	},
	Attr: func(name []byte) int {
		switch string(name) {
		case "status":
			return attrStatus
		case "owner":
			return attrOwner
		case "ownerid":
			return attrOwnerID
		case "country":
			return attrCountry
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
		blocks rpsl.Slab[Block]
		asns   rpsl.Slab[ASN]
	)
	for i := 0; ; i++ {
		o, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("lacnicwhois: %w", err)
		}
		switch o.Class {
		case classBlock:
			b, err := blockFromRecord(s, o)
			if err != nil {
				if err := c.Skip(i, -1, fmt.Errorf("lacnicwhois: record %d: %w", i, err)); err != nil {
					return nil, err
				}
				continue
			}
			*blocks.New() = b
		case classASN:
			a, err := asnFromRecord(s, o)
			if err != nil {
				if err := c.Skip(i, -1, fmt.Errorf("lacnicwhois: record %d: %w", i, err)); err != nil {
					return nil, err
				}
				continue
			}
			*asns.New() = a
		}
		c.Parsed()
	}
	return &Database{Blocks: blocks.All(), ASNs: asns.All()}, nil
}

func blockFromRecord(s *rpsl.Scanner, o *rpsl.Record) (Block, error) {
	var b Block
	var err error
	if b.Prefix, err = netutil.ParsePrefixBytes(o.Key()); err != nil {
		// Host bits set, or input only the string parser reads.
		if b.Prefix, err = netutil.ParsePrefixLoose(string(o.Key())); err != nil {
			return Block{}, err
		}
	}
	// Interned first, so a status already lower case costs no copy.
	b.Status = strings.ToLower(strings.TrimSpace(s.Intern(o.Value(attrStatus))))
	switch b.Status {
	case StatusAllocated, StatusAssigned, StatusReallocated, StatusReassigned:
	case "":
		return Block{}, fmt.Errorf("block %v: missing status", b.Prefix)
	default:
		return Block{}, fmt.Errorf("block %v: unknown status %q", b.Prefix, b.Status)
	}
	b.Owner = s.Intern(o.Value(attrOwner))
	b.OwnerID = s.Intern(o.Value(attrOwnerID))
	b.Country = s.Intern(o.Value(attrCountry))
	if b.OwnerID == "" {
		return Block{}, fmt.Errorf("block %v: missing ownerid", b.Prefix)
	}
	return b, nil
}

func asnFromRecord(s *rpsl.Scanner, o *rpsl.Record) (ASN, error) {
	v, err := rpsl.ParseAutNum(o.Key())
	if err != nil {
		return ASN{}, fmt.Errorf("aut-num %q: %v", o.Key(), err)
	}
	a := ASN{Number: v, Owner: s.Intern(o.Value(attrOwner)), OwnerID: s.Intern(o.Value(attrOwnerID))}
	if a.OwnerID == "" {
		return ASN{}, fmt.Errorf("aut-num %q: missing ownerid", o.Key())
	}
	return a, nil
}

// Write encodes the database: blocks first, then ASNs.
func Write(w io.Writer, db *Database) error {
	ww := rpsl.NewWriter(w)
	for _, b := range db.Blocks {
		o := &rpsl.Object{}
		o.Add("inetnum", b.Prefix.String())
		o.Add("status", b.Status)
		if b.Owner != "" {
			o.Add("owner", b.Owner)
		}
		o.Add("ownerid", b.OwnerID)
		if b.Country != "" {
			o.Add("country", b.Country)
		}
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	for _, a := range db.ASNs {
		o := &rpsl.Object{}
		o.Add("aut-num", "AS"+strconv.FormatUint(uint64(a.Number), 10))
		if a.Owner != "" {
			o.Add("owner", a.Owner)
		}
		o.Add("ownerid", a.OwnerID)
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	return nil
}
