package whois_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ipleasing/internal/diag"
	"ipleasing/internal/faultgen"
	"ipleasing/internal/synth"
	"ipleasing/internal/whois"
)

var update = flag.Bool("update", false, "rewrite testdata/loads.golden")

// TestLoadGolden pins what every registry's loader makes of generated
// dumps, clean and faultgen-damaged, in lenient and strict mode: the
// load report (counts, bytes, every error sample with its line or
// record) and a digest of the loaded database written back through the
// dialect's writer. Any change to what a dump loads as, or to how its
// damage is reported, shows here.
//
// Re-record with: go test ./internal/whois -run TestLoadGolden -update
func TestLoadGolden(t *testing.T) {
	var out bytes.Buffer
	for _, seed := range []int64{1, 2} {
		dir := t.TempDir()
		if err := synth.Generate(synth.Config{Seed: seed, Scale: 0.02}).WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== world seed %d, clean\n", seed)
		renderLoads(t, &out, dir)
		if seed != 1 {
			continue
		}
		for _, fseed := range []int64{1, 2, 3} {
			fr, err := faultgen.Corrupt(dir, fseed)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "== world seed %d, faultgen seed %d\n", seed, fseed)
			renderLoads(t, &out, dir)
			if err := fr.Restore(); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "loads.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("loads differ from %s; got:\n%s", path, out.Bytes())
	}
}

// renderLoads writes every registry's lenient and strict load of dir.
func renderLoads(t *testing.T, out *bytes.Buffer, dir string) {
	t.Helper()
	for _, reg := range whois.Registries {
		for _, mode := range []struct {
			name string
			opts diag.LoadOptions
		}{{"lenient", diag.Lenient()}, {"strict", diag.Strict()}} {
			c := diag.NewCollector("whois/"+reg.String(), mode.opts)
			db, err := whois.LoadFileWith(reg, filepath.Join(dir, whois.DumpFileName(reg)), c)
			rep := c.Report()
			fmt.Fprintf(out, "-- %s %s: parsed %d, skipped %d, bytes %d, missing %t, truncated %t\n",
				rep.Source, mode.name, rep.Parsed, rep.Skipped, rep.Bytes, rep.Missing, rep.Truncated)
			for _, e := range rep.ErrorSamples {
				fmt.Fprintf(out, "sample: record %d, offset %d: %v\n", e.Record, e.Offset, e.Err)
			}
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			var dump bytes.Buffer
			var werr error
			switch reg {
			case whois.ARIN:
				werr = whois.WriteARIN(&dump, db)
			case whois.LACNIC:
				werr = whois.WriteLACNIC(&dump, db)
			default:
				werr = whois.WriteRPSL(&dump, db)
			}
			if werr != nil {
				t.Fatalf("%v: write: %v", reg, werr)
			}
			var port [4]int
			for _, n := range db.InetNums {
				port[n.Portability]++
			}
			fmt.Fprintf(out, "db: %d inetnums (%d portable, %d non-portable, %d legacy, %d unknown), %d aut-nums, %d orgs, %d mntners; dump %d bytes, sha256 %x\n",
				len(db.InetNums), port[whois.Portable], port[whois.NonPortable], port[whois.Legacy], port[whois.PortabilityUnknown],
				len(db.AutNums), len(db.Orgs), len(db.Mntners), dump.Len(), sha256.Sum256(dump.Bytes()))
		}
	}
}
