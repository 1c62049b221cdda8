package whois

import (
	"bytes"
	"testing"

	"ipleasing/internal/netutil"
)

func TestRegistryNames(t *testing.T) {
	for _, r := range Registries {
		got, err := ParseRegistry(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRegistry(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseRegistry("IANA"); err == nil {
		t.Fatal("unknown registry accepted")
	}
	if got, err := ParseRegistry(" ripe "); err != nil || got != RIPE {
		t.Fatalf("case/space-insensitive parse failed: %v %v", got, err)
	}
	if Registry(99).String() == "" {
		t.Fatal("out-of-range String empty")
	}
}

func TestPortabilityOf(t *testing.T) {
	cases := []struct {
		reg    Registry
		status string
		want   Portability
	}{
		{RIPE, "ALLOCATED PA", Portable},
		{RIPE, "ASSIGNED PI", Portable},
		{RIPE, "assigned pa", NonPortable},
		{RIPE, "SUB-ALLOCATED PA", NonPortable},
		{RIPE, "LEGACY", Legacy},
		{RIPE, "WEIRD", PortabilityUnknown},
		{AFRINIC, "ALLOCATED PA", Portable},
		{AFRINIC, "SUB-ALLOCATED PA", NonPortable},
		{APNIC, "ALLOCATED PORTABLE", Portable},
		{APNIC, "ASSIGNED NON-PORTABLE", NonPortable},
		{APNIC, "ALLOCATED PA", PortabilityUnknown}, // RIPE vocab not valid at APNIC
		{ARIN, "Direct Allocation", Portable},
		{ARIN, "Direct Assignment", Portable},
		{ARIN, "Reallocation", NonPortable},
		{ARIN, "Reassignment", NonPortable},
		{ARIN, "Legacy", Legacy},
		{LACNIC, "allocated", Portable},
		{LACNIC, "reassigned", NonPortable},
		{LACNIC, "reallocated", NonPortable},
	}
	for _, c := range cases {
		if got := PortabilityOf(c.reg, c.status); got != c.want {
			t.Errorf("PortabilityOf(%v, %q) = %v, want %v", c.reg, c.status, got, c.want)
		}
	}
}

func TestPortabilityString(t *testing.T) {
	if Portable.String() != "portable" || NonPortable.String() != "non-portable" ||
		Legacy.String() != "legacy" || PortabilityUnknown.String() != "unknown" {
		t.Fatal("portability names wrong")
	}
}

const ripeSample = `
organisation:   ORG-GCI1-RIPE
org-name:       GCI Network
mnt-ref:        MNT-GCICOM
country:        SE
source:         RIPE

aut-num:        AS8851
as-name:        GCI-AS
org:            ORG-GCI1-RIPE
source:         RIPE

inetnum:        213.210.0.0 - 213.210.63.255
netname:        GCI-NET
org:            ORG-GCI1-RIPE
status:         ALLOCATED PA
mnt-by:         MNT-GCICOM
country:        SE
source:         RIPE

inetnum:        213.210.33.0 - 213.210.33.255
netname:        IPXO-LEASE
status:         ASSIGNED PA
mnt-by:         IPXO-MNT
source:         RIPE
`

func TestLoadRPSL(t *testing.T) {
	db, err := LoadRPSL(RIPE, []byte(ripeSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Orgs) != 1 || len(db.AutNums) != 1 || len(db.InetNums) != 2 {
		t.Fatalf("counts: %d %d %d", len(db.Orgs), len(db.AutNums), len(db.InetNums))
	}
	org, ok := db.OrgByID("ORG-GCI1-RIPE")
	if !ok || org.Name != "GCI Network" || org.MntRef[0] != "MNT-GCICOM" {
		t.Fatalf("org = %+v", org)
	}
	asns := db.ASNsOfOrg("ORG-GCI1-RIPE")
	if len(asns) != 1 || asns[0] != 8851 {
		t.Fatalf("asns = %v", asns)
	}
	root := db.InetNums[0]
	if root.Portability != Portable || root.OrgID != "ORG-GCI1-RIPE" {
		t.Fatalf("root = %+v", root)
	}
	leaf := db.InetNums[1]
	if leaf.Portability != NonPortable || leaf.MntBy[0] != "IPXO-MNT" {
		t.Fatalf("leaf = %+v", leaf)
	}
	ps := leaf.Prefixes()
	if len(ps) != 1 || ps[0] != netutil.MustParsePrefix("213.210.33.0/24") {
		t.Fatalf("leaf prefixes = %v", ps)
	}
}

func TestMntnerRoundTrip(t *testing.T) {
	in := "mntner: IPXO-MNT\ndescr: IPXO maintainer\nauth: MD5-PW $1$x\nsource: RIPE\n"
	db, err := LoadRPSL(RIPE, []byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Mntners) != 1 || db.Mntners[0].Handle != "IPXO-MNT" || db.Mntners[0].Descr != "IPXO maintainer" {
		t.Fatalf("mntners = %+v", db.Mntners)
	}
	var buf bytes.Buffer
	if err := WriteRPSL(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRPSL(RIPE, buf.Bytes())
	if err != nil || len(back.Mntners) != 1 || back.Mntners[0].Handle != "IPXO-MNT" {
		t.Fatalf("round trip: %v %+v", err, back.Mntners)
	}
}

func TestLoadRPSLWrongDialect(t *testing.T) {
	if _, err := LoadRPSL(ARIN, []byte("")); err == nil {
		t.Fatal("ARIN accepted as RPSL dialect")
	}
	if _, err := LoadRPSL(LACNIC, []byte("")); err == nil {
		t.Fatal("LACNIC accepted as RPSL dialect")
	}
}

func TestLoadRPSLErrors(t *testing.T) {
	if _, err := LoadRPSL(RIPE, []byte("inetnum: garbage\nstatus: ALLOCATED PA\n")); err == nil {
		t.Fatal("bad inetnum accepted")
	}
	if _, err := LoadRPSL(RIPE, []byte("aut-num: ASxyz\n")); err == nil {
		t.Fatal("bad aut-num accepted")
	}
}

func TestRPSLRoundTrip(t *testing.T) {
	db, err := LoadRPSL(RIPE, []byte(ripeSample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRPSL(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRPSL(RIPE, buf.Bytes())
	if err != nil {
		t.Fatalf("re-load: %v", err)
	}
	if len(back.InetNums) != len(db.InetNums) || len(back.AutNums) != len(db.AutNums) || len(back.Orgs) != len(db.Orgs) {
		t.Fatal("round-trip counts differ")
	}
	for i := range db.InetNums {
		a, b := db.InetNums[i], back.InetNums[i]
		if a.Range != b.Range || a.Status != b.Status || a.OrgID != b.OrgID ||
			a.Portability != b.Portability || len(a.MntBy) != len(b.MntBy) {
			t.Fatalf("inetnum %d: %+v != %+v", i, a, b)
		}
	}
}

func TestLoadARINUnified(t *testing.T) {
	in := `
OrgID: EGIHOST
OrgName: EGIHosting
Country: US

ASHandle: AS64500
ASNumber: 64500
ASName: EGI-AS
OrgID: EGIHOST

NetHandle: NET-198-51-100-0-1
NetRange: 198.51.100.0 - 198.51.100.255
NetName: EGI-NET
NetType: Direct Allocation
OrgID: EGIHOST
`
	db, err := LoadARIN([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Registry != ARIN {
		t.Fatal("registry wrong")
	}
	n := db.InetNums[0]
	if n.Portability != Portable || n.OrgID != "EGIHOST" || len(n.MntBy) != 1 || n.MntBy[0] != "EGIHOST" {
		t.Fatalf("net = %+v", n)
	}
	if got := db.ASNsOfOrg("EGIHOST"); len(got) != 1 || got[0] != 64500 {
		t.Fatalf("asns = %v", got)
	}
	var buf bytes.Buffer
	if err := WriteARIN(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadARIN(buf.Bytes())
	if err != nil || len(back.InetNums) != 1 || back.InetNums[0].Range != n.Range {
		t.Fatalf("ARIN round trip: %v", err)
	}
}

func TestLoadLACNICUnified(t *testing.T) {
	in := `
inetnum: 200.160.0.0/20
status: allocated
owner: Radiografica Costarricense
ownerid: CR-RACS-LACNIC
country: CR

inetnum: 200.160.4.0/24
status: reassigned
owner: Cliente Final SA
ownerid: CR-CFSA-LACNIC

aut-num: AS27700
owner: Radiografica Costarricense
ownerid: CR-RACS-LACNIC
`
	db, err := LoadLACNIC([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Orgs) != 2 {
		t.Fatalf("orgs = %d (synthesised from ownerids)", len(db.Orgs))
	}
	if db.InetNums[0].Portability != Portable || db.InetNums[1].Portability != NonPortable {
		t.Fatal("portability wrong")
	}
	if got := db.ASNsOfOrg("CR-RACS-LACNIC"); len(got) != 1 || got[0] != 27700 {
		t.Fatalf("asns = %v", got)
	}
	var buf bytes.Buffer
	if err := WriteLACNIC(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLACNIC(buf.Bytes())
	if err != nil || len(back.InetNums) != 2 || len(back.Orgs) != 2 {
		t.Fatalf("LACNIC round trip: %v (%d nets %d orgs)", err, len(back.InetNums), len(back.Orgs))
	}
}

func TestDatasetDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := NewDataset()
	ripe := ds.DB(RIPE)
	ripe.Orgs = append(ripe.Orgs, &Org{Registry: RIPE, ID: "ORG-X", Name: "X Corp"})
	ripe.InetNums = append(ripe.InetNums, &InetNum{
		Registry: RIPE,
		Range:    netutil.RangeOf(netutil.MustParsePrefix("185.0.0.0/16")),
		Status:   "ALLOCATED PA", Portability: Portable, OrgID: "ORG-X",
		MntBy: []string{"MNT-X"},
	})
	ripe.Reindex()
	lac := ds.DB(LACNIC)
	lac.Orgs = append(lac.Orgs, &Org{Registry: LACNIC, ID: "CR-X", Name: "Y"})
	lac.InetNums = append(lac.InetNums, &InetNum{
		Registry: LACNIC,
		Range:    netutil.RangeOf(netutil.MustParsePrefix("200.0.0.0/16")),
		Status:   "allocated", Portability: Portable, OrgID: "CR-X",
	})
	lac.Reindex()

	if err := WriteDir(ds, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.DB(RIPE).InetNums) != 1 || len(back.DB(LACNIC).InetNums) != 1 {
		t.Fatal("round trip lost blocks")
	}
	if back.TotalInetNums() != 2 {
		t.Fatalf("TotalInetNums = %d", back.TotalInetNums())
	}
	// Missing files are fine: empty DBs.
	if len(back.DB(APNIC).InetNums) != 0 {
		t.Fatal("APNIC should be empty")
	}
}

func TestDumpFileName(t *testing.T) {
	if DumpFileName(RIPE) != "ripe.db" || DumpFileName(LACNIC) != "lacnic.db" {
		t.Fatal("file names wrong")
	}
}

func TestDatasetDBCreatesMissing(t *testing.T) {
	ds := &Dataset{DBs: map[Registry]*Database{}}
	db := ds.DB(APNIC)
	if db == nil || db.Registry != APNIC {
		t.Fatal("DB() did not create")
	}
	if ds.DB(APNIC) != db {
		t.Fatal("DB() not idempotent")
	}
}
