// Command synthgen generates a synthetic dataset directory: WHOIS dumps
// for all five RIRs, MRT RIB files, CAIDA-style relationship datasets,
// RPKI archives, abuse lists, broker registries, ground truth, and the
// Figure-3 timeline — everything the inference pipeline consumes, in the
// native on-disk formats.
//
// With -mutate, synthgen additionally emits a churned successor epoch
// of the same world: after writing the base dataset to -out, it
// perturbs a -churn fraction of each mutable entity class (allocations
// added/removed/transferred, RIB origin flips, ROA rotations,
// organisation churn) and writes the result to -mutate-out (default
// "<out>.next"). One run yields two dataset directories exactly one
// reload apart — the input for reloads over churn, full or incremental.
// The same -seed writes the same bytes, so a base epoch can be
// regenerated at will; -mutate still needs the generated world in
// memory, so both epochs come from one run.
//
// Usage:
//
//	synthgen -out dataset [-scale 0.02] [-seed 1]
//	synthgen -out dataset -mutate [-mutate-out dataset.next] [-churn 0.01] [-mutate-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"ipleasing"
)

func main() {
	out := flag.String("out", "dataset", "output directory")
	scale := flag.Float64("scale", 0.02, "fraction of paper-scale counts")
	seed := flag.Int64("seed", 1, "generator seed")
	mutate := flag.Bool("mutate", false, "also emit a churned successor epoch of the generated world to -mutate-out")
	mutateOut := flag.String("mutate-out", "", "successor epoch directory (default \"<out>.next\"; with -mutate)")
	mutateSeed := flag.Int64("mutate-seed", 1, "mutation stream seed (with -mutate)")
	churn := flag.Float64("churn", 0.01, "fraction of each mutable entity class touched (with -mutate): leaf/root allocations, routes, ROAs, organisations; AS-to-org reassignments run at a tenth of this rate")
	flag.Parse()

	w := ipleasing.Generate(ipleasing.Config{Seed: *seed, Scale: *scale})
	if err := w.WriteDir(*out); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
	leased := 0
	for _, tr := range w.Truth {
		if tr.ActuallyLeased {
			leased++
		}
	}
	fmt.Printf("wrote %s: %d registered leaves (%d actually leased), %d routed prefixes, %d truth records\n",
		*out, len(w.Truth), leased, len(w.Routes), len(w.Truth))
	if !*mutate {
		return
	}
	nextDir := *mutateOut
	if nextDir == "" {
		nextDir = *out + ".next"
	}
	st := ipleasing.Mutate(w, ipleasing.MutateConfig{Seed: *mutateSeed, Churn: *churn})
	if err := w.WriteDir(nextDir); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: successor epoch at churn %g (%d mutations: %d leaves removed, %d split, %d moved, %d roots transferred, %d orgs renamed, %d origin flips, %d ROA rotations, %d ASNs reassigned)\n",
		nextDir, *churn, st.Total(), st.LeavesRemoved, st.LeavesSplit, st.LeavesMoved,
		st.RootsTransferred, st.OrgsRenamed, st.OriginFlips, st.ROARotations, st.ASNsReassigned)
}
