package whois

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ipleasing/internal/arinwhois"
	"ipleasing/internal/diag"
	"ipleasing/internal/lacnicwhois"
	"ipleasing/internal/netutil"
	"ipleasing/internal/par"
	"ipleasing/internal/rpsl"
	"ipleasing/internal/telemetry"
)

// LoadRPSL parses an RPSL-dialect dump (RIPE, APNIC, AFRINIC) held in
// memory into a unified database. Unknown object classes are skipped;
// inetnum objects with unparseable ranges are an error.
func LoadRPSL(reg Registry, data []byte) (*Database, error) {
	return LoadRPSLWith(reg, data, nil)
}

// The RPSL classes and attributes LoadRPSLWith reads. The scanner checks
// every other line but builds nothing from it.
const (
	rpslInetnum = iota
	rpslAutNum
	rpslOrganisation
	rpslMntner
)

const (
	rpslStatus = iota
	rpslOrg
	rpslNetname
	rpslCountry
	rpslMntBy
	rpslASName
	rpslOrgName
	rpslMntRef
	rpslDescr
)

var rpslKeep = rpsl.Keep{
	Class: func(name []byte) int {
		switch string(name) {
		case "inetnum":
			return rpslInetnum
		case "aut-num":
			return rpslAutNum
		case "organisation":
			return rpslOrganisation
		case "mntner":
			return rpslMntner
		}
		return -1
	},
	Attr: func(name []byte) int {
		switch string(name) {
		case "status":
			return rpslStatus
		case "org":
			return rpslOrg
		case "netname":
			return rpslNetname
		case "country":
			return rpslCountry
		case "mnt-by":
			return rpslMntBy
		case "as-name":
			return rpslASName
		case "org-name":
			return rpslOrgName
		case "mnt-ref":
			return rpslMntRef
		case "descr":
			return rpslDescr
		}
		return -1
	},
}

// LoadRPSLWith is LoadRPSL threaded through a load-diagnostics collector.
// A nil collector (or strict options) keeps LoadRPSL's fail-fast behavior;
// in lenient mode malformed lines and records are skipped and accounted.
func LoadRPSLWith(reg Registry, data []byte, c *diag.Collector) (*Database, error) {
	switch reg {
	case RIPE, APNIC, AFRINIC:
	default:
		return nil, fmt.Errorf("whois: registry %v does not use the RPSL dialect", reg)
	}
	s := rpsl.NewScanner(data, rpslKeep)
	if !c.Strict() {
		s.OnBadLine = func(line int, err error) error {
			return c.Skip(line, -1, err)
		}
	}
	var (
		inets rpsl.Slab[InetNum]
		auts  rpsl.Slab[AutNum]
		orgs  rpsl.Slab[Org]
		mnts  rpsl.Slab[Mntner]
		lists strSlab
		ports = portabilities{reg: reg}
	)
	// collect gathers every value of attr, interned, into the list lists
	// is building.
	collect := func(o *rpsl.Record, attr int) {
		for _, f := range o.Fields {
			if f.Attr == attr {
				lists.push(s.Intern(f.Value))
			}
		}
	}
	for rec := 1; ; rec++ {
		o, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("whois: %v dump: %w", reg, err)
		}
		switch o.Class {
		case rpslInetnum:
			rng, err := netutil.ParseRangeBytes(o.Key())
			if err != nil {
				if err := c.Skip(rec, -1, fmt.Errorf("whois: %v inetnum %q: %w", reg, o.Key(), err)); err != nil {
					return nil, err
				}
				continue
			}
			status := s.Intern(o.Value(rpslStatus))
			collect(o, rpslMntBy)
			*inets.New() = InetNum{
				Registry:    reg,
				Range:       rng,
				NetName:     string(o.Value(rpslNetname)),
				Status:      status,
				Portability: ports.of(status),
				OrgID:       s.Intern(o.Value(rpslOrg)),
				MntBy:       lists.take(),
				Country:     s.Intern(o.Value(rpslCountry)),
			}
		case rpslAutNum:
			v, err := rpsl.ParseAutNum(o.Key())
			if err != nil {
				if err := c.Skip(rec, -1, fmt.Errorf("whois: %v aut-num %q: %v", reg, o.Key(), err)); err != nil {
					return nil, err
				}
				continue
			}
			*auts.New() = AutNum{
				Registry: reg, Number: v, Name: string(o.Value(rpslASName)), OrgID: s.Intern(o.Value(rpslOrg)),
			}
		case rpslOrganisation:
			collect(o, rpslMntRef)
			collect(o, rpslMntBy)
			*orgs.New() = Org{
				Registry: reg, ID: s.Intern(o.Key()), Name: string(o.Value(rpslOrgName)),
				Country: s.Intern(o.Value(rpslCountry)), MntRef: lists.take(),
			}
		case rpslMntner:
			*mnts.New() = Mntner{
				Registry: reg, Handle: s.Intern(o.Key()), Descr: string(o.Value(rpslDescr)),
			}
		}
		c.Parsed()
	}
	db := NewDatabase(reg)
	db.InetNums, db.AutNums, db.Orgs, db.Mntners = inets.All(), auts.All(), orgs.All(), mnts.All()
	db.Reindex()
	return db, nil
}

// WriteRPSL renders the database in RPSL dump form (orgs, aut-nums,
// inetnums).
func WriteRPSL(w io.Writer, db *Database) error {
	ww := rpsl.NewWriter(w)
	for _, m := range db.Mntners {
		o := &rpsl.Object{}
		o.Add("mntner", m.Handle)
		if m.Descr != "" {
			o.Add("descr", m.Descr)
		}
		o.Add("auth", "MD5-PW $1$placeholder")
		o.Add("source", db.Registry.String())
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	for _, g := range db.Orgs {
		o := &rpsl.Object{}
		o.Add("organisation", g.ID)
		o.Add("org-name", g.Name)
		for _, m := range g.MntRef {
			o.Add("mnt-ref", m)
		}
		if g.Country != "" {
			o.Add("country", g.Country)
		}
		o.Add("source", db.Registry.String())
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	for _, a := range db.AutNums {
		o := &rpsl.Object{}
		o.Add("aut-num", "AS"+strconv.FormatUint(uint64(a.Number), 10))
		if a.Name != "" {
			o.Add("as-name", a.Name)
		}
		if a.OrgID != "" {
			o.Add("org", a.OrgID)
		}
		o.Add("source", db.Registry.String())
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	for _, n := range db.InetNums {
		o := &rpsl.Object{}
		o.Add("inetnum", n.Range.String())
		if n.NetName != "" {
			o.Add("netname", n.NetName)
		}
		if n.OrgID != "" {
			o.Add("org", n.OrgID)
		}
		o.Add("status", n.Status)
		for _, m := range n.MntBy {
			o.Add("mnt-by", m)
		}
		if n.Country != "" {
			o.Add("country", n.Country)
		}
		o.Add("source", db.Registry.String())
		if err := ww.Write(o); err != nil {
			return err
		}
	}
	return nil
}

// LoadARIN parses an ARIN bulk-WHOIS dump held in memory into a unified
// database. ARIN has no RPSL maintainers; the managing OrgID doubles as
// the maintainer handle so broker matching (paper §5.3) works uniformly.
func LoadARIN(data []byte) (*Database, error) {
	return LoadARINWith(data, nil)
}

// LoadARINWith is LoadARIN threaded through a load-diagnostics collector.
func LoadARINWith(data []byte, c *diag.Collector) (*Database, error) {
	raw, err := arinwhois.ParseWith(data, c)
	if err != nil {
		return nil, err
	}
	var (
		orgs  = make([]Org, len(raw.Orgs))
		auts  = make([]AutNum, len(raw.ASes))
		inets = make([]InetNum, len(raw.Nets))
		lists strSlab
		ports = portabilities{reg: ARIN}
	)
	for i, g := range raw.Orgs {
		lists.push(g.ID)
		orgs[i] = Org{Registry: ARIN, ID: g.ID, Name: g.Name, Country: g.Country, MntRef: lists.take()}
	}
	for i, a := range raw.ASes {
		auts[i] = AutNum{Registry: ARIN, Number: a.Number, Name: a.Name, OrgID: a.OrgID}
	}
	for i, n := range raw.Nets {
		if n.OrgID != "" {
			lists.push(n.OrgID)
		}
		inets[i] = InetNum{
			Registry:    ARIN,
			Range:       n.Range,
			NetName:     n.Name,
			Status:      n.Type,
			Portability: ports.of(n.Type),
			OrgID:       n.OrgID,
			MntBy:       lists.take(),
			Country:     n.Country,
		}
	}
	db := NewDatabase(ARIN)
	db.Orgs, db.AutNums, db.InetNums = ptrs(orgs), ptrs(auts), ptrs(inets)
	db.Reindex()
	return db, nil
}

// WriteARIN renders the database in ARIN bulk-WHOIS form.
func WriteARIN(w io.Writer, db *Database) error {
	raw := &arinwhois.Database{}
	for _, g := range db.Orgs {
		raw.Orgs = append(raw.Orgs, &arinwhois.Org{ID: g.ID, Name: g.Name, Country: g.Country})
	}
	for _, a := range db.AutNums {
		raw.ASes = append(raw.ASes, &arinwhois.AS{
			Handle: "AS" + strconv.FormatUint(uint64(a.Number), 10),
			Number: a.Number, OrgID: a.OrgID, Name: a.Name,
		})
	}
	for i, n := range db.InetNums {
		// ARIN has no maintainer attribute: the managing handle rides in
		// OrgID, falling back to the block's maintainer for customer
		// blocks without a registered organisation.
		orgID := n.OrgID
		if orgID == "" && len(n.MntBy) > 0 {
			orgID = n.MntBy[0]
		}
		raw.Nets = append(raw.Nets, &arinwhois.Net{
			Handle:  arinNetHandle(n.Range, i),
			OrgID:   orgID,
			Name:    n.NetName,
			Range:   n.Range,
			Type:    n.Status,
			Country: n.Country,
		})
	}
	return arinwhois.Write(w, raw)
}

func arinNetHandle(r netutil.Range, i int) string {
	return "NET-" + strings.ReplaceAll(r.First.String(), ".", "-") + "-" + strconv.Itoa(i)
}

// LoadLACNIC parses a LACNIC dump held in memory into a unified
// database. LACNIC has no standalone organisation objects; orgs are
// synthesised from the distinct ownerid/owner pairs found on blocks and
// aut-nums, and the ownerid doubles as the maintainer handle.
func LoadLACNIC(data []byte) (*Database, error) {
	return LoadLACNICWith(data, nil)
}

// LoadLACNICWith is LoadLACNIC threaded through a load-diagnostics
// collector.
func LoadLACNICWith(data []byte, c *diag.Collector) (*Database, error) {
	raw, err := lacnicwhois.ParseWith(data, c)
	if err != nil {
		return nil, err
	}
	var (
		orgs  []Org
		inets = make([]InetNum, len(raw.Blocks))
		auts  = make([]AutNum, len(raw.ASNs))
		lists strSlab
		ports = portabilities{reg: LACNIC}
	)
	seen := make(map[string]bool)
	addOrg := func(id, name, country string) {
		if id == "" || seen[id] {
			return
		}
		seen[id] = true
		lists.push(id)
		orgs = append(orgs, Org{Registry: LACNIC, ID: id, Name: name, Country: country, MntRef: lists.take()})
	}
	for i, b := range raw.Blocks {
		addOrg(b.OwnerID, b.Owner, b.Country)
		lists.push(b.OwnerID)
		inets[i] = InetNum{
			Registry:    LACNIC,
			Range:       netutil.RangeOf(b.Prefix),
			NetName:     b.OwnerID,
			Status:      b.Status,
			Portability: ports.of(b.Status),
			OrgID:       b.OwnerID,
			MntBy:       lists.take(),
			Country:     b.Country,
		}
	}
	for i, a := range raw.ASNs {
		addOrg(a.OwnerID, a.Owner, "")
		auts[i] = AutNum{Registry: LACNIC, Number: a.Number, Name: a.Owner, OrgID: a.OwnerID}
	}
	db := NewDatabase(LACNIC)
	db.InetNums, db.AutNums, db.Orgs = ptrs(inets), ptrs(auts), ptrs(orgs)
	db.Reindex()
	return db, nil
}

// WriteLACNIC renders the database in LACNIC dump form. Blocks whose range
// is not a single CIDR prefix are split into their CIDR decomposition, as
// LACNIC's dialect only carries prefixes.
func WriteLACNIC(w io.Writer, db *Database) error {
	raw := &lacnicwhois.Database{}
	orgName := func(id string) string {
		if o, ok := db.OrgByID(id); ok {
			return o.Name
		}
		return id
	}
	for _, n := range db.InetNums {
		// LACNIC has no separate maintainer attribute: the managing
		// handle is the ownerid. Blocks without a holder org (customer
		// sub-assignments) carry their maintainer handle there.
		ownerID := n.OrgID
		if ownerID == "" && len(n.MntBy) > 0 {
			ownerID = n.MntBy[0]
		}
		if ownerID == "" {
			ownerID = "UNKNOWN-LACNIC"
		}
		for _, p := range n.Range.Prefixes() {
			raw.Blocks = append(raw.Blocks, &lacnicwhois.Block{
				Prefix:  p,
				Status:  strings.ToLower(n.Status),
				Owner:   orgName(ownerID),
				OwnerID: ownerID,
				Country: n.Country,
			})
		}
	}
	for _, a := range db.AutNums {
		// Every LACNIC object needs an ownerid; ASNs registered without
		// an organisation get a per-ASN placeholder handle.
		ownerID := a.OrgID
		if ownerID == "" {
			ownerID = fmt.Sprintf("LACNIC-AS-%d", a.Number)
		}
		raw.ASNs = append(raw.ASNs, &lacnicwhois.ASN{
			Number: a.Number, Owner: orgName(ownerID), OwnerID: ownerID,
		})
	}
	return lacnicwhois.Write(w, raw)
}

// DumpFileName returns the conventional dataset-directory file name for a
// registry's WHOIS dump ("ripe.db", "arin.db", ...).
func DumpFileName(reg Registry) string {
	return strings.ToLower(reg.String()) + ".db"
}

// LoadFileWith loads one registry's dump from path using the registry's
// native dialect, accounting it in c (nil: strict, no accounting). The
// dump is read whole, once, and parsed in place.
func LoadFileWith(reg Registry, path string, c *diag.Collector) (*Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c.SetFile(path)
	c.AddBytes(int64(len(data)))
	switch reg {
	case ARIN:
		return LoadARINWith(data, c)
	case LACNIC:
		return LoadLACNICWith(data, c)
	default:
		return LoadRPSLWith(reg, data, c)
	}
}

// WriteFile writes one registry's dump to path in its native dialect.
func WriteFile(db *Database, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch db.Registry {
	case ARIN:
		werr = WriteARIN(f, db)
	case LACNIC:
		werr = WriteLACNIC(f, db)
	default:
		werr = WriteRPSL(f, db)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// LoadDir loads all five registry dumps from dir (files named per
// DumpFileName). Missing files yield empty databases. The five dialect
// parsers are independent, so the dumps are parsed concurrently; the
// result is identical to a serial load.
func LoadDir(dir string) (*Dataset, error) {
	ds, _, err := LoadDirWith(dir, diag.Strict())
	return ds, err
}

// LoadDirWith is LoadDir with an explicit ingestion policy. It returns one
// LoadReport per registry in Registries order (sources "whois/RIPE",
// "whois/ARIN", ...). A registry whose dump file is absent yields an empty
// database and a Missing report in both modes — LoadDir has always
// tolerated absent registries; the report now says so out loud. In lenient
// mode malformed lines and records inside a present dump are skipped and
// accounted instead of failing the whole load.
func LoadDirWith(dir string, opts diag.LoadOptions) (*Dataset, []*diag.LoadReport, error) {
	return LoadDirContext(context.Background(), dir, opts)
}

// LoadDirContext is LoadDirWith under a context. When the context
// carries a telemetry trace, each registry's parse runs inside a
// "whois.parse.<RIR>" span annotated with the records and bytes the
// parse consumed.
func LoadDirContext(ctx context.Context, dir string, opts diag.LoadOptions) (*Dataset, []*diag.LoadReport, error) {
	dbs := make([]*Database, len(Registries))
	cols := make([]*diag.Collector, len(Registries))
	for i, reg := range Registries {
		cols[i] = diag.NewCollector("whois/"+reg.String(), opts)
	}
	err := par.Each(len(Registries), func(i int) error {
		reg := Registries[i]
		_, sp := telemetry.StartSpan(ctx, "whois.parse."+reg.String())
		defer func() {
			if rep := cols[i].Report(); rep != nil {
				sp.AddRecords(int64(rep.Parsed))
				sp.AddBytes(rep.Bytes)
			}
			sp.End()
		}()
		path := filepath.Join(dir, DumpFileName(reg))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			cols[i].SetFile(path)
			cols[i].MarkMissing()
			return nil
		}
		db, err := LoadFileWith(reg, path, cols[i])
		if err != nil {
			return fmt.Errorf("whois: loading %s: %w", path, err)
		}
		dbs[i] = db
		return nil
	})
	reports := make([]*diag.LoadReport, len(Registries))
	for i, c := range cols {
		reports[i] = c.Report()
	}
	if err != nil {
		return nil, reports, err
	}
	ds := NewDataset()
	for i, db := range dbs {
		if db != nil {
			ds.DBs[Registries[i]] = db
		}
	}
	return ds, reports, nil
}

// WriteDir writes every registry's dump into dir.
func WriteDir(ds *Dataset, dir string) error {
	for _, reg := range Registries {
		db, ok := ds.DBs[reg]
		if !ok {
			continue
		}
		if err := WriteFile(db, filepath.Join(dir, DumpFileName(reg))); err != nil {
			return err
		}
	}
	return nil
}

// portabilities memoises PortabilityOf over the few distinct statuses
// of one dump. Loaders pass interned statuses, so a hit costs a pointer
// comparison.
type portabilities struct {
	reg      Registry
	statuses []string
	ports    []Portability
}

func (p *portabilities) of(status string) Portability {
	for i, s := range p.statuses {
		if s == status {
			return p.ports[i]
		}
	}
	port := PortabilityOf(p.reg, status)
	if len(p.statuses) < 16 {
		p.statuses = append(p.statuses, status)
		p.ports = append(p.ports, port)
	}
	return port
}

// strSlab hands out the short string lists a load builds — maintainers,
// managing handles — from shared chunks, so a dump costs one allocation
// per chunk rather than one per object.
type strSlab struct {
	buf   []string
	start int // where the list being built begins in buf
}

// push appends v to the list being built.
func (s *strSlab) push(v string) {
	if len(s.buf) == cap(s.buf) {
		list := s.buf[s.start:]
		chunk := make([]string, len(list), max(1024, 2*len(list)))
		copy(chunk, list)
		s.buf, s.start = chunk, 0
	}
	s.buf = append(s.buf, v)
}

// take ends the list being built and returns it, nil when empty. Its
// capacity is its length, so an append to it never reaches the next
// list.
func (s *strSlab) take() []string {
	if len(s.buf) == s.start {
		return nil
	}
	list := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return list
}

// ptrs returns pointers to the elements of vals, nil when it is empty.
func ptrs[T any](vals []T) []*T {
	if len(vals) == 0 {
		return nil
	}
	out := make([]*T, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}
