package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ipleasing/internal/chaos"
	"ipleasing/internal/loadgen"
	"ipleasing/internal/serve"
)

// Invariant names, stable strings for the run report.
const (
	InvIdentity      = "identity"       // same-generation replicas answer byte-identically
	InvErrorBudget   = "error_budget"   // client errors outside fault windows stay in budget
	InvLag           = "lag"            // generation lag bounded while the path is healthy
	InvReconvergence = "reconvergence"  // every replica reconverges within the SLO post-heal
	InvScrape        = "scrape_failure" // telemetry itself must stay scrapeable when healthy
)

// Violation is one invariant breach, timestamped relative to the storm
// start.
type Violation struct {
	Invariant string        `json:"invariant"`
	At        time.Duration `json:"at,omitempty"`
	Replica   string        `json:"replica,omitempty"`
	Detail    string        `json:"detail"`
}

// lagSample is one externally scraped fleet observation. The checker
// derives every verdict from these — never from harness-internal state
// — because the whole point is proving the *service's own telemetry*
// tells the truth. Lag in particular is recomputed here as
// publisherGen − replicaServingGen: a sabotaged replica that stopped
// polling self-reports lag 0 (it has no idea the publisher moved on),
// and only the external difference exposes it.
type lagSample struct {
	at      time.Duration
	pubGen  uint64
	repGens []uint64 // 0 = scrape failed
}

// checker samples the fleet's public endpoints for the storm's
// duration and turns the observations into invariant verdicts.
type checker struct {
	cfg    StormConfig
	sched  chaos.Schedule
	fleet  *fleet
	start  time.Time
	client *http.Client

	// probe queries for the identity invariant, rotated round-robin.
	probes []string

	mu         sync.Mutex
	samples    []lagSample
	violations []Violation
	identities int // identity comparisons performed (report visibility)
	// loadModes is the last snapshot load mode ("mmap"/"heap"/"built")
	// each replica self-reported on /statusz. The run report publishes
	// it, and identity violations across replicas running in different
	// modes are annotated — a body mismatch between an mmap and a heap
	// replica of the same generation points at the zero-copy view
	// layer, not replication.
	loadModes map[string]string
}

func newChecker(cfg StormConfig, sched chaos.Schedule, f *fleet, start time.Time) *checker {
	return &checker{
		cfg:    cfg,
		sched:  sched,
		fleet:  f,
		start:  start,
		client: &http.Client{Timeout: 3 * time.Second},
		probes: []string{
			"/lookup?ip=10.0.0.77",
			"/lookup?ip=10.0.1.9",
			"/lookup?prefix=10.0.0.0/24",
			"/table1",
		},
		loadModes: make(map[string]string),
	}
}

// LoadModes returns the last load mode each replica reported, keyed by
// base URL.
func (c *checker) LoadModes() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.loadModes))
	for k, v := range c.loadModes {
		out[k] = v
	}
	return out
}

func (c *checker) loadModeOf(url string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadModes[url]
}

func (c *checker) violate(v Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, v)
}

// Violations returns a copy of everything recorded so far.
func (c *checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Run samples until ctx is done. The sampling cadence is fast enough to
// catch a lag bound breach within one publisher reload period.
func (c *checker) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.SampleEvery)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		c.sampleLag()
		c.sampleIdentity(c.probes[i%len(c.probes)])
	}
}

// statuszGen scrapes one replica's serving generation from /statusz
// (replication section). The lag invariant tolerates off-by-a-
// generation timing, so the counter — which moves just before the
// snapshot swap lands — is fine here; the identity invariant does NOT
// tolerate it and keys on the X-Snapshot-Generation response header
// instead, which is stamped from the same atomic snapshot-pointer read
// that answers the body.
func (c *checker) statuszGen(ctx context.Context, baseURL string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/statusz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Replication *struct {
			ServingGeneration uint64 `json:"serving_generation"`
		} `json:"replication"`
		Snapshot *struct {
			LoadMode string `json:"load_mode"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if body.Snapshot != nil && body.Snapshot.LoadMode != "" {
		c.mu.Lock()
		if c.loadModes == nil {
			c.loadModes = make(map[string]string)
		}
		c.loadModes[baseURL] = body.Snapshot.LoadMode
		c.mu.Unlock()
	}
	if body.Replication == nil {
		return 0, fmt.Errorf("no replication section")
	}
	return body.Replication.ServingGeneration, nil
}

// healthyForLag reports whether the lag bound applies at elapsed: no
// fault window covers it and enough settle time has passed since the
// preceding window ended for a full poll cycle to land.
func (c *checker) healthyForLag(elapsed time.Duration) bool {
	if !c.sched.HealthyAt(elapsed) {
		return false
	}
	settle := 2*c.cfg.Poll + 500*time.Millisecond
	for _, f := range c.sched.Faults {
		if f.End <= elapsed && elapsed-f.End < settle {
			return false
		}
	}
	return elapsed > settle // initial settle after arming, too
}

func (c *checker) sampleLag() {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	elapsed := time.Since(c.start)
	pubGen, err := headGeneration(ctx, c.fleet.publisherURL)
	if err != nil {
		// The publisher is never behind the proxy; losing it outside a
		// fault window is a harness-visible outage worth flagging.
		if c.healthyForLag(elapsed) {
			c.violate(Violation{Invariant: InvScrape, At: elapsed,
				Detail: fmt.Sprintf("publisher generation probe failed: %v", err)})
		}
		return
	}
	s := lagSample{at: elapsed, pubGen: pubGen, repGens: make([]uint64, len(c.fleet.replicaURLs))}
	healthy := c.healthyForLag(elapsed)
	for i, url := range c.fleet.replicaURLs {
		gen, err := c.statuszGen(ctx, url)
		if err != nil {
			if healthy {
				c.violate(Violation{Invariant: InvScrape, At: elapsed, Replica: url,
					Detail: fmt.Sprintf("statusz scrape failed: %v", err)})
			}
			continue
		}
		s.repGens[i] = gen
		// Invariant 3: externally computed lag stays bounded while the
		// replication path is healthy.
		if healthy && pubGen > gen && pubGen-gen > c.cfg.MaxLag {
			c.violate(Violation{Invariant: InvLag, At: elapsed, Replica: url,
				Detail: fmt.Sprintf("generation lag %d (publisher %d, serving %d) exceeds bound %d",
					pubGen-gen, pubGen, gen, c.cfg.MaxLag)})
		}
	}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// sampleIdentity checks invariant 1 on one probe: replicas answering
// from the same snapshot generation must answer byte-identically. Each
// data response carries the generation of the snapshot that produced
// its body in X-Snapshot-Generation, stamped from the same atomic
// snapshot-pointer read — so a single round trip per replica yields a
// consistent (generation, body) pair, where the statusz sandwich this
// replaces took three round trips and still had to discard any replica
// whose snapshot swapped mid-probe.
func (c *checker) sampleIdentity(probe string) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	elapsed := time.Since(c.start)
	type obs struct {
		url  string
		hash string
	}
	byGen := map[string][]obs{}
	for _, url := range c.fleet.replicaURLs {
		body, status, hdr, err := c.get(ctx, url+probe)
		if err != nil || status != http.StatusOK {
			continue // the error-budget invariant owns failed requests
		}
		gen := hdr.Get(serve.GenerationHeader)
		if gen == "" {
			continue // no generation header: not a daemon-served snapshot
		}
		sum := sha256.Sum256(body)
		byGen[gen] = append(byGen[gen], obs{url: url, hash: hex.EncodeToString(sum[:8])})
	}
	compared := false
	for gen, group := range byGen {
		if len(group) < 2 {
			continue
		}
		compared = true
		for _, o := range group[1:] {
			if o.hash != group[0].hash {
				detail := fmt.Sprintf("generation %s, probe %s: body %s != %s (from %s)",
					gen, probe, o.hash, group[0].hash, group[0].url)
				// A mismatch across load modes indicts the mmap view
				// layer rather than replication; name both modes.
				if ma, mb := c.loadModeOf(o.url), c.loadModeOf(group[0].url); ma != mb && ma != "" && mb != "" {
					detail += fmt.Sprintf(" [load modes differ: %s=%s, %s=%s]", o.url, ma, group[0].url, mb)
				}
				c.violate(Violation{Invariant: InvIdentity, At: elapsed, Replica: o.url,
					Detail: detail})
			}
		}
	}
	if compared {
		c.mu.Lock()
		c.identities++
		c.mu.Unlock()
	}
}

func (c *checker) get(ctx context.Context, url string) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header, err
}

// Finalize computes the post-hoc invariants — error budget (2) and
// post-heal reconvergence (4) — from the load report and the sample
// trail, and returns every violation of the run.
func (c *checker) Finalize(load *loadgen.Report) []Violation {
	c.checkErrorBudget(load)
	c.checkReconvergence()
	return c.Violations()
}

// checkErrorBudget forgives client errors timestamped inside a fault
// window (padded for clock skew) and holds the rest to the declared
// budget.
func (c *checker) checkErrorBudget(load *loadgen.Report) {
	if load == nil || load.Requests == 0 {
		return
	}
	const pad = 250 * time.Millisecond
	outside := int64(0)
	var first *loadgen.ErrorEvent
	for i, ev := range load.ErrorEvents {
		elapsed := ev.At.Sub(c.start)
		inWindow := false
		for _, f := range c.sched.Faults {
			if elapsed >= f.Start-pad && elapsed < f.End+pad {
				inWindow = true
				break
			}
		}
		if !inWindow {
			outside++
			if first == nil {
				first = &load.ErrorEvents[i]
			}
		}
	}
	// The retained event log is capped; extrapolate conservatively by
	// assuming every dropped event also fell outside a window.
	outside += load.ErrorEventsDropped
	rate := float64(outside) / float64(load.Requests)
	if rate > c.cfg.ErrorBudget {
		detail := fmt.Sprintf("error rate outside fault windows %.4f > budget %.4f (%d/%d requests)",
			rate, c.cfg.ErrorBudget, outside, load.Requests)
		if first != nil {
			detail += fmt.Sprintf("; first: op=%s status=%d err=%q", first.Op, first.Status, first.Err)
		}
		c.violate(Violation{Invariant: InvErrorBudget, Detail: detail})
	}
}

// checkReconvergence requires every replica to get back within the lag
// bound within HealSLO of the last fault window ending.
func (c *checker) checkReconvergence() {
	heal := c.sched.LastFaultEnd()
	if heal == 0 {
		return // fault-free schedule: nothing to reconverge from
	}
	deadline := heal + c.cfg.HealSLO
	c.mu.Lock()
	samples := c.samples
	c.mu.Unlock()
	for i, url := range c.fleet.replicaURLs {
		convergedAt := time.Duration(-1)
		judged := false
		for _, s := range samples {
			if s.at < heal || s.pubGen == 0 || s.repGens[i] == 0 {
				continue
			}
			if s.at > deadline {
				judged = true
			}
			if s.pubGen-min64(s.pubGen, s.repGens[i]) <= c.cfg.MaxLag {
				convergedAt = s.at
				break
			}
		}
		switch {
		case convergedAt >= 0 && convergedAt <= deadline:
			// reconverged in time
		case convergedAt >= 0:
			c.violate(Violation{Invariant: InvReconvergence, At: convergedAt, Replica: url,
				Detail: fmt.Sprintf("reconverged %v after heal, SLO %v", convergedAt-heal, c.cfg.HealSLO)})
		case judged:
			c.violate(Violation{Invariant: InvReconvergence, Replica: url,
				Detail: fmt.Sprintf("never reconverged within %v of heal at %v", c.cfg.HealSLO, heal)})
		default:
			c.violate(Violation{Invariant: InvReconvergence, Replica: url,
				Detail: "insufficient post-heal samples to judge reconvergence"})
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
