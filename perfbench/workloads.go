package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipleasing/internal/serve"
)

// Run shape.
const (
	windows       = 5                      // timed windows per run, each on a fresh fleet
	warmup        = 500 * time.Millisecond // load before any timed phase
	readerPause   = time.Millisecond       // the paced reader's gap between requests
	pollPause     = 5 * time.Millisecond   // gap between /table1 polls after a flip
	flipTimeout   = 10 * time.Second       // a flip not served by then fails
	churnReload   = "250ms"                // publisher -reload on the churn fleet; see README
	churnPoll     = "20ms"                 // replica -poll on the churn fleet
	oracleRetries = 5                      // answer re-checks after a converged flip
	oracleBackoff = 200 * time.Millisecond // between those re-checks
)

// workload is what the timed and traced runs need from each workload.
type workload interface {
	// start boots the workload's fleet and returns it with its set-up
	// time.
	start(e *env) (*fleet, time.Duration, error)
	// phase drives load for d and returns what it measured.
	phase(e *env, f *fleet, d time.Duration, traced bool) (*phaseResult, error)
	// oracle compares a fixed sample of answers with the reference.
	oracle(e *env, f *fleet) error
	// request is the workload's request type for the handler rung and
	// the /debug/traces endpoint its spans are filed under.
	request(i int) *http.Request
	endpoint() string
	// requestLatencies are the e2e latencies (µs) of that request type.
	requestLatencies(ph *phaseResult) []float64
	// ladderIPs are the addresses the in-process ladder rungs look up.
	ladderIPs() []string
}

// phaseResult is one load phase's measurements.
type phaseResult struct {
	ops      []float64 // op latencies, ms
	reads    []float64 // single-read latencies, µs
	requests int64     // HTTP requests the replica answered: op loop, reader, /table1 polls
	repCPU   time.Duration
	genCPU   time.Duration
	rss      int64 // publisher + replica, at the end of the phase
}

func runLookupSingle(e *env) error { return runWorkload(e, &lookupSingle{}) }
func runReloadChurn(e *env) error  { return runWorkload(e, &reloadChurn{}) }

func runWorkload(e *env, w workload) error {
	if e.trace {
		return tracedRun(e, w)
	}
	return timedRun(e, w)
}

// timedRun measures the end-to-end metrics on fleets booted one after
// another. Each is timed from spawn to readiness, warmed up, runs one
// window of the timed phase, passes the oracle and is stopped. Five
// fleets sample five process placements and five stretches of machine
// time, so one slow fleet moves a median less than it would as the only
// fleet of a run. The fleets run with request tracing off (see bootFleet).
func timedRun(e *env, w workload) error {
	var setupS, cpuPerRequest, rss []float64
	var ops, reads [][]float64
	for i := 0; i < windows; i++ {
		ph, setup, err := timedWindow(e, w)
		if err != nil {
			return err
		}
		setupS = append(setupS, setup.Seconds())
		ops, reads = append(ops, ph.ops), append(reads, ph.reads)
		if ph.requests > 0 {
			cpuPerRequest = append(cpuPerRequest, us(ph.repCPU)/float64(ph.requests))
		}
		rss = append(rss, mib(ph.rss))
	}
	e.set("setup_s", median(setupS))
	for name, samples := range map[string][][]float64{"op_p50_ms": ops, "read_p50_us": reads} {
		v, err := windowedPercentile(samples, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		e.set(name, v)
	}
	if len(cpuPerRequest) == 0 {
		return fmt.Errorf("no request completed")
	}
	e.set("cpu_us_per_request", median(cpuPerRequest))
	e.set("rss_mb", median(rss))
	return nil
}

// timedWindow boots one fleet and runs one timed window on it.
func timedWindow(e *env, w workload) (*phaseResult, time.Duration, error) {
	f, setup, err := w.start(e)
	if err != nil {
		return nil, 0, err
	}
	defer f.stop()
	if _, err := w.phase(e, f, warmup, false); err != nil {
		return nil, 0, err
	}
	ph, err := w.phase(e, f, e.seconds/windows, false)
	if err != nil {
		return nil, 0, err
	}
	if err := w.oracle(e, f); err != nil {
		return nil, 0, err
	}
	return ph, setup, f.alive()
}

// measure wraps a load loop with the CPU and RSS readings every phase
// reports.
func measure(f *fleet, ph *phaseResult, loop func() error) error {
	_, rep0, err := f.cpu()
	if err != nil {
		return err
	}
	gen0, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	if err := loop(); err != nil {
		return err
	}
	_, rep1, err := f.cpu()
	if err != nil {
		return err
	}
	gen1, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	pub, rep, err := f.rss()
	if err != nil {
		return err
	}
	ph.repCPU, ph.genCPU, ph.rss = rep1-rep0, gen1-gen0, pub+rep
	return nil
}

// traceparents mints a distinct sampled W3C traceparent per request so
// the replica traces every request of a traced phase.
var traceparents atomic.Uint64

func forceTrace(req *http.Request) {
	n := traceparents.Add(1)
	req.Header.Set("Traceparent", fmt.Sprintf("00-%016x%016x-%016x-01", uint64(0x9e3779b97f4a7c15), n, n))
}

// exchange sends req and reads the whole reply into buf, returning the
// latency from send to the last body byte.
func exchange(c *http.Client, req *http.Request, buf *bytes.Buffer) (*http.Response, time.Duration, error) {
	buf.Reset()
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, time.Since(t0), err
}

// servingGeneration reads the generation a replica serves.
func servingGeneration(c *http.Client, base string) (string, error) {
	var st struct {
		Snapshot struct {
			Generation uint64 `json:"generation"`
		} `json:"snapshot"`
	}
	if err := getJSON(context.Background(), c, base+"/statusz", &st); err != nil {
		return "", err
	}
	if st.Snapshot.Generation == 0 {
		return "", fmt.Errorf("replica serves no generation")
	}
	return strconv.FormatUint(st.Snapshot.Generation, 10), nil
}

// startBig boots the lookup workloads' fleet on the big world.
func startBig(e *env) (*fleet, time.Duration, error) {
	return bootFleet(e, "big", func(dir string) (string, error) { return e.in.Big, nil }, nil, nil)
}

// bootFleet boots a fleet in a fresh directory under the run's work
// directory. A timed run's daemons trace nothing; a traced run's keep
// the shipped head sampling, since the replica traces a forced
// traceparent only when tracing is on.
func bootFleet(e *env, name string, data func(dir string) (string, error), pubArgs, repArgs []string) (*fleet, time.Duration, error) {
	if !e.trace {
		pubArgs = append(append([]string(nil), pubArgs...), "-trace-sample", "-1")
		repArgs = append(append([]string(nil), repArgs...), "-trace-sample", "-1")
	}
	e.fleets++
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", name, e.fleets))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d, err := data(dir)
	if err != nil {
		return nil, 0, err
	}
	return startFleet(e.leased, dir, d, pubArgs, repArgs)
}

// lookupSingle: closed-loop GET /lookup?ip= on one keep-alive
// connection (a reader with no pause) for the first half of each phase,
// the paced reader alone for the second: two points on the latency
// curve, saturated and nearly idle. Beside the closed loop on a
// two-vCPU machine, the paced reader's median spread 0.30–0.36 over
// five runs (the loop's 0.04–0.13) with how the threads were placed.
type lookupSingle struct {
	e            *env
	loop, reader *reader
}

func (w *lookupSingle) start(e *env) (*fleet, time.Duration, error) {
	f, setup, err := startBig(e)
	if err != nil {
		return nil, 0, err
	}
	w.e = e
	gen, err := servingGeneration(http.DefaultClient, f.rep.url)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	w.loop = newReader(f.rep.url, e.in.BigProbes, gen, 0)
	w.reader = newReader(f.rep.url, e.in.BigProbes, gen, readerPause)
	return f, setup, nil
}

func (w *lookupSingle) phase(e *env, f *fleet, d time.Duration, traced bool) (*phaseResult, error) {
	ph := &phaseResult{}
	err := measure(f, ph, func() error {
		stop := w.loop.run(e, traced)
		time.Sleep(d / 2)
		ops, n := stop()
		stop = w.reader.run(e, traced)
		time.Sleep(d - d/2)
		reads, m := stop()
		for _, v := range ops {
			ph.ops = append(ph.ops, v/1e3)
		}
		ph.reads, ph.requests = reads, n+m
		return nil
	})
	return ph, err
}

// checkLookup checks one /lookup reply: status, the generation that
// answered and, when want is set, the found verdict.
func checkLookup(resp *http.Response, body []byte, gen string, want []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	if g := resp.Header.Get(serve.GenerationHeader); g != gen {
		return fmt.Errorf("answered by generation %q, want %q", g, gen)
	}
	if want != nil && !bytes.Contains(body, want) {
		return fmt.Errorf("body lacks %s", want)
	}
	return nil
}

func (w *lookupSingle) oracle(e *env, f *fleet) error { return bigOracle(e, f) }

func (w *lookupSingle) request(i int) *http.Request {
	ip := w.e.in.BigProbes[i%len(w.e.in.BigProbes)].IP
	req, _ := http.NewRequest(http.MethodGet, "/lookup?ip="+ip, nil) // relative URL of a parsed address
	return req
}

func (w *lookupSingle) endpoint() string { return "lookup" }

func (w *lookupSingle) requestLatencies(ph *phaseResult) []float64 {
	out := make([]float64, len(ph.ops))
	for i, v := range ph.ops {
		out[i] = v * 1e3
	}
	return out
}

func (w *lookupSingle) ladderIPs() []string { return probeIPs(w.e.in.BigProbes) }

// bigOracle posts every big-world probe through /lookup/batch and
// compares each answer with the planted truth.
func bigOracle(e *env, f *fleet) error {
	c := conn()
	defer c.CloseIdleConnections()
	probes := e.in.BigProbes
	for lo := 0; lo < len(probes); lo += batchSize {
		chunk := probes[lo:min(lo+batchSize, len(probes))]
		items, err := postBatch(c, f.rep.url, probeIPs(chunk))
		if err != nil {
			return err
		}
		for i, p := range chunk {
			got := items[i]
			switch {
			case got.IP != p.IP || got.Found != p.Found:
				e.tally.fail("%s: found=%v, planted truth says %v", p.IP, got.Found, p.Found)
			case p.Found && (got.Inference == nil || got.Inference.Prefix != p.Prefix || got.Inference.Category != p.Category):
				e.tally.fail("%s: answered %+v, planted truth is %s %s", p.IP, got.Inference, p.Prefix, p.Category)
			default:
				e.tally.ok()
			}
		}
	}
	return nil
}

// batchItem is one /lookup/batch answer.
type batchItem struct {
	IP        string               `json:"ip"`
	Found     bool                 `json:"found"`
	Inference *serve.InferenceView `json:"inference"`
	Error     string               `json:"error"`
}

// postBatch classifies ips through /lookup/batch.
func postBatch(c *http.Client, base string, ips []string) ([]batchItem, error) {
	body := batchBodies(ips)[0]
	resp, err := c.Post(base+"/lookup/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /lookup/batch: %s: %s", resp.Status, b)
	}
	var out struct {
		Results []batchItem `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("POST /lookup/batch: %w", err)
	}
	if len(out.Results) != len(ips) {
		return nil, fmt.Errorf("POST /lookup/batch: %d answers for %d addresses", len(out.Results), len(ips))
	}
	return out.Results, nil
}

// reader is a single-address GET /lookup client on its own connection:
// the paced reader, and with no pause lookup-single's op loop.
type reader struct {
	urls  []string
	want  [][]byte // found marker per URL; nil entries are not checked
	gen   string   // generation every answer must carry; "" allows any non-decreasing one
	pause time.Duration
	next  int
}

// newReader builds a reader over probes that waits pause after each
// request. With a fixed generation it checks every verdict against the
// probes' expectations; with gen "" the data changes under it, so it
// checks only status and that the answering generation never goes back.
func newReader(base string, probes []probe, gen string, pause time.Duration) *reader {
	r := &reader{urls: lookupURLs(base, probeIPs(probes)), gen: gen, pause: pause, want: make([][]byte, len(probes))}
	if gen != "" {
		for i, p := range probes {
			r.want[i] = foundMarker(p.Found)
		}
	}
	return r
}

// run starts the reader and returns a stop function that waits for it
// and returns its latencies (µs) and the requests it completed.
func (r *reader) run(e *env, traced bool) func() ([]float64, int64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var lats []float64
	var requests int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := conn()
		defer c.CloseIdleConnections()
		var buf bytes.Buffer
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			j := r.next % len(r.urls)
			r.next++
			req, _ := http.NewRequest(http.MethodGet, r.urls[j], nil) // URL built from a parsed address
			if traced {
				forceTrace(req)
			}
			resp, lat, err := exchange(c, req, &buf)
			if err != nil {
				e.tally.fail("reader GET %s: %v", r.urls[j], err)
			} else {
				requests++
				if err := r.checkReply(resp, buf.Bytes(), j, &last); err != nil {
					e.tally.fail("reader GET %s: %v", r.urls[j], err)
				} else {
					e.tally.ok()
					lats = append(lats, us(lat))
				}
			}
			if r.pause > 0 {
				time.Sleep(r.pause)
			}
		}
	}()
	return func() ([]float64, int64) {
		close(done)
		wg.Wait()
		return lats, requests
	}
}

func (r *reader) checkReply(resp *http.Response, body []byte, j int, last *uint64) error {
	if r.gen != "" {
		return checkLookup(resp, body, r.gen, r.want[j])
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	g, err := strconv.ParseUint(resp.Header.Get(serve.GenerationHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("generation header: %w", err)
	}
	if g < *last {
		return fmt.Errorf("generation went back from %d to %d", *last, g)
	}
	*last = g
	return nil
}
