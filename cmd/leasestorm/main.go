// Command leasestorm is the fleet chaos harness: it boots a real
// publisher + N replica leased fleet in-process (the same daemon wiring
// as cmd/leased), routes the replicas' snapshot polling through a
// seeded fault-injection proxy (internal/chaos), drives a mixed
// /lookup + /lookup/batch + /table1 workload against the replicas for
// the whole run (internal/loadgen), and checks four invariants from the
// fleet's own public endpoints (/statusz, /metrics, /snapshot/current):
//
//  1. identity       — replicas at the same snapshot generation serve
//     byte-identical lookup and table responses
//  2. error_budget   — client-visible errors outside fault windows stay
//     within the declared budget
//  3. lag            — externally computed generation lag (publisher
//     generation minus replica serving generation)
//     stays bounded while the replication path is
//     healthy
//  4. reconvergence  — after the last fault heals, every replica is
//     back within the lag bound inside the SLO
//
// The same -seed always produces the same fault schedule (and its
// fingerprint in the report), so a failing storm is replayable. The
// -sabotage flag boots a deliberately broken fleet — the run MUST then
// fail, proving the checker detects violations rather than rubber-
// stamping whatever the fleet does.
//
// Output is a machine-readable JSON run report on stdout (or -o). Exit
// status: 0 pass, 1 invariant violations, 2 harness failure.
//
// Usage:
//
//	leasestorm [-data dataset] [-replicas 2] [-seed 1] [-duration 8s]
//	           [-qps 100] [-concurrency 4] [-reload 500ms] [-poll 250ms]
//	           [-error-budget 0.01] [-max-lag 0] [-heal-slo 0]
//	           [-sabotage stale-replica] [-workdir dir] [-o report.json]
//	           [-fleet-logs]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one storm, writes its report to stdout (or -o)
// and a summary to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg StormConfig
	fs := flag.NewFlagSet("leasestorm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the JSON run report here instead of stdout")
	fleetLogs := fs.Bool("fleet-logs", false, "pass fleet daemon logs through to stderr")
	fs.StringVar(&cfg.Data, "data", "", "dataset directory (empty: generate a synthetic one)")
	fs.StringVar(&cfg.WorkDir, "workdir", "", "scratch directory (empty: temp dir, removed afterwards)")
	fs.IntVar(&cfg.Replicas, "replicas", 2, "replica count")
	fs.Int64Var(&cfg.Seed, "seed", 1, "chaos schedule + workload seed")
	fs.DurationVar(&cfg.Duration, "duration", 8*time.Second, "storm length")
	fs.Float64Var(&cfg.QPS, "qps", 100, "aggregate workload rate")
	fs.IntVar(&cfg.Concurrency, "concurrency", 4, "workload workers")
	fs.DurationVar(&cfg.Reload, "reload", 500*time.Millisecond, "publisher reload period (generation advance rate)")
	fs.DurationVar(&cfg.Poll, "poll", 250*time.Millisecond, "replica poll period")
	fs.Float64Var(&cfg.ErrorBudget, "error-budget", 0.01, "client error rate allowed outside fault windows")
	fs.Uint64Var(&cfg.MaxLag, "max-lag", 0, "generation-lag bound while healthy (0: derived from poll/reload)")
	fs.DurationVar(&cfg.HealSLO, "heal-slo", 0, "post-heal reconvergence deadline (0: duration/4)")
	fs.StringVar(&cfg.Sabotage, "sabotage", "", "boot a deliberately broken fleet; the run must FAIL (modes: stale-replica)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *fleetLogs {
		cfg.LogW = stderr
	}

	if cfg.Sabotage != "" && cfg.Sabotage != SabotageStaleReplica {
		fmt.Fprintf(stderr, "leasestorm: unknown sabotage mode %q\n", cfg.Sabotage)
		return 2
	}

	rep, err := RunStorm(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "leasestorm:", err)
		return 2
	}

	w := stdout
	var fh *os.File
	if *out != "" {
		if fh, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "leasestorm:", err)
			return 2
		}
		w = fh
	}
	err = rep.Write(w)
	if fh != nil {
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "leasestorm:", err)
		return 2
	}

	fmt.Fprintf(stderr,
		"leasestorm: seed=%d schedule=%s faults=%d requests=%d errors=%d samples=%d identity_checks=%d violations=%d pass=%v\n",
		rep.Seed, rep.ScheduleFingerprint, len(rep.Schedule.Faults),
		rep.Load.Requests, rep.Load.Errors, rep.Samples, rep.IdentityChecks,
		len(rep.Violations), rep.Pass)
	for _, v := range rep.Violations {
		fmt.Fprintf(stderr, "leasestorm: VIOLATION [%s] at=%v replica=%s: %s\n",
			v.Invariant, v.At, v.Replica, v.Detail)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}
