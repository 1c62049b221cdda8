package whois

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ipleasing/internal/netutil"
)

// randomDatabase builds a semantically valid random database for reg.
func randomDatabase(reg Registry, rng *rand.Rand) *Database {
	db := NewDatabase(reg)
	nOrgs := 1 + rng.Intn(8)
	for i := 0; i < nOrgs; i++ {
		org := &Org{
			Registry: reg,
			ID:       fmt.Sprintf("ORG-%s-%d", reg, i),
			Name:     fmt.Sprintf("Random Org %d", i),
			Country:  []string{"US", "DE", "JP", "BR"}[rng.Intn(4)],
		}
		if reg == ARIN || reg == LACNIC {
			org.MntRef = []string{org.ID}
		} else {
			org.MntRef = []string{fmt.Sprintf("MNT-%s-%d", reg, i)}
		}
		db.Orgs = append(db.Orgs, org)
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		db.AutNums = append(db.AutNums, &AutNum{
			Registry: reg,
			Number:   uint32(64500 + i),
			Name:     fmt.Sprintf("AS-RAND-%d", i),
			OrgID:    db.Orgs[rng.Intn(len(db.Orgs))].ID,
		})
	}
	portable := []string{"ALLOCATED PA", "Direct Allocation", "allocated"}
	nonPortable := []string{"ASSIGNED PA", "Reassignment", "reassigned"}
	statusIdx := map[Registry]int{RIPE: 0, APNIC: 0, AFRINIC: 0, ARIN: 1, LACNIC: 2}[reg]
	if reg == APNIC {
		portable[0], nonPortable[0] = "ALLOCATED PORTABLE", "ASSIGNED NON-PORTABLE"
	}
	base := uint32(10+rng.Intn(100)) << 24
	for i := 0; i < 2+rng.Intn(10); i++ {
		p := netutil.Prefix{Base: netutil.Addr(base + uint32(i)<<16), Len: 18 + uint8(rng.Intn(7))}.Canonicalize()
		status := portable[statusIdx]
		portability := Portable
		org := db.Orgs[rng.Intn(len(db.Orgs))]
		if rng.Intn(2) == 0 {
			status, portability = nonPortable[statusIdx], NonPortable
		}
		db.InetNums = append(db.InetNums, &InetNum{
			Registry:    reg,
			Range:       netutil.RangeOf(p),
			NetName:     fmt.Sprintf("NET-%d", i),
			Status:      status,
			Portability: portability,
			OrgID:       org.ID,
			MntBy:       []string{org.MntRef[0]},
			Country:     org.Country,
		})
	}
	db.Reindex()
	return db
}

// TestAllDialectsRoundTripProperty: for every registry, random databases
// survive a write/load cycle with the semantics the inference depends on
// intact — ranges, statuses, portability, orgs, maintainers, countries.
func TestAllDialectsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		for _, reg := range Registries {
			db := randomDatabase(reg, rng)
			var buf bytes.Buffer
			var werr error
			switch reg {
			case ARIN:
				werr = WriteARIN(&buf, db)
			case LACNIC:
				werr = WriteLACNIC(&buf, db)
			default:
				werr = WriteRPSL(&buf, db)
			}
			if werr != nil {
				t.Fatalf("%v write: %v", reg, werr)
			}
			var back *Database
			var rerr error
			switch reg {
			case ARIN:
				back, rerr = LoadARIN(buf.Bytes())
			case LACNIC:
				back, rerr = LoadLACNIC(buf.Bytes())
			default:
				back, rerr = LoadRPSL(reg, buf.Bytes())
			}
			if rerr != nil {
				t.Fatalf("%v load: %v", reg, rerr)
			}
			if len(back.InetNums) != len(db.InetNums) {
				t.Fatalf("%v: blocks %d != %d", reg, len(back.InetNums), len(db.InetNums))
			}
			for i := range db.InetNums {
				a, b := db.InetNums[i], back.InetNums[i]
				if a.Range != b.Range {
					t.Fatalf("%v block %d: range %v != %v", reg, i, a.Range, b.Range)
				}
				if a.Portability != b.Portability {
					t.Fatalf("%v block %d: portability %v != %v", reg, i, a.Portability, b.Portability)
				}
				if a.OrgID != b.OrgID {
					t.Fatalf("%v block %d: org %q != %q", reg, i, a.OrgID, b.OrgID)
				}
				if len(a.MntBy) == 0 || len(b.MntBy) == 0 || a.MntBy[0] != b.MntBy[0] {
					t.Fatalf("%v block %d: mnt %v != %v", reg, i, a.MntBy, b.MntBy)
				}
				if a.Country != b.Country {
					t.Fatalf("%v block %d: country %q != %q", reg, i, a.Country, b.Country)
				}
			}
			if len(back.AutNums) != len(db.AutNums) {
				t.Fatalf("%v: asns %d != %d", reg, len(back.AutNums), len(db.AutNums))
			}
			for i := range db.AutNums {
				if db.AutNums[i].Number != back.AutNums[i].Number ||
					db.AutNums[i].OrgID != back.AutNums[i].OrgID {
					t.Fatalf("%v asn %d differs", reg, i)
				}
			}
			// Org ASN lookup keeps working after the round trip.
			for _, org := range db.Orgs {
				if len(db.ASNsOfOrg(org.ID)) != len(back.ASNsOfOrg(org.ID)) {
					t.Fatalf("%v: ASNsOfOrg(%s) changed", reg, org.ID)
				}
			}
		}
	}
}
