package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ipleasing"
	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
	"ipleasing/internal/telemetry"
)

// Traced-run shape.
const (
	daemonFlips   = 20 // flips the reload fleet makes for the daemon.* metrics
	fetchRepeats  = 5  // FetchToFile + OpenFile rounds against the live publisher
	ladderRounds  = 15 // rounds of the in-process lookup rungs, median reported
	handlerRounds = 9  // rounds of the handler rung
	handlerSingle = 2000
	spanTraces    = 256 // newest traces read back from /debug/traces
)

// tracedRun measures the per-layer metrics. It runs the workload's load
// untraced and then with every request traced, reads the replica's
// spans, drives the reload fleet for the daemon metrics, and times the
// lookup ladder and the reload stage ledger by calling each module's
// public functions.
func tracedRun(e *env, w workload) error {
	f, _, err := w.start(e)
	if err != nil {
		return err
	}
	defer f.stop()
	if _, err := w.phase(e, f, warmup, false); err != nil {
		return err
	}
	half := e.seconds / 2
	base, err := w.phase(e, f, half, false)
	if err != nil {
		return err
	}
	traced, err := w.phase(e, f, half, true)
	if err != nil {
		return err
	}
	baseP50, err := percentile(w.requestLatencies(base), 50)
	if err != nil {
		return err
	}
	tracedP50, err := percentile(w.requestLatencies(traced), 50)
	if err != nil {
		return err
	}
	e.set("bench.trace_overhead_pct", (tracedP50/baseP50-1)*100)
	// Reload-churn makes too few flips in half a run for a tail, and
	// tracing touches only its reader: its op tail pools both phases.
	opTail, err := percentile(append(append([]float64(nil), base.ops...), traced.ops...), 80)
	if err != nil {
		return fmt.Errorf("tail.op_p80_ms: %w", err)
	}
	e.set("tail.op_p80_ms", opTail)
	readTail, err := percentile(base.reads, 99)
	if err != nil {
		return fmt.Errorf("tail.read_p99_us: %w", err)
	}
	e.set("tail.read_p99_us", readTail)
	e.set("loadgen.cpu_us_per_request", us(base.genCPU)/float64(base.requests))
	if err := spanMetrics(e, f.rep.url, w.endpoint()); err != nil {
		return err
	}
	if err := w.oracle(e, f); err != nil {
		return err
	}

	// The reload fleet: the workload's own on reload-churn, a fresh one
	// on the lookup workloads.
	var fresh []float64
	if rc, ok := w.(*reloadChurn); ok {
		fresh, err = daemonMetrics(e, f, rc.chain)
	} else {
		fresh, err = func() ([]float64, error) {
			cf, ch, _, err := startChurn(e, "reload")
			if err != nil {
				return nil, err
			}
			defer cf.stop()
			return daemonMetrics(e, cf, ch)
		}()
	}
	if err != nil {
		return err
	}
	if err := f.alive(); err != nil {
		return err
	}
	f.stop() // the ladder reads the replica's snapshot file in-process
	if err := ladder(e, w, filepath.Join(f.dir, "replica-snap"), baseP50); err != nil {
		return err
	}
	if err := ledger(e); err != nil {
		return err
	}
	// What freshness spends beyond the measured stages: tick and poll
	// waits, the reload that was already running at the flip, swaps.
	e.set("daemon.wait_ms", remainder(median(fresh),
		e.metrics["load.parse_ms"], e.metrics["delta.infer_ms"], e.metrics["serve.patch_ms"],
		e.metrics["snapstore.encode_ms"], e.metrics["snapstore.publish_ms"],
		e.metrics["snapstore.fetch_ms"], e.metrics["snapstore.open_ms"]))
	return nil
}

// spanMetrics reads the replica's request traces for endpoint and
// reports the median decode, lookup and render span durations.
func spanMetrics(e *env, repURL, endpoint string) error {
	var resp struct {
		Traces []struct {
			Root *telemetry.SpanNode `json:"root"`
		} `json:"traces"`
	}
	url := fmt.Sprintf("%s/debug/traces?endpoint=%s&limit=%d", repURL, endpoint, spanTraces)
	if err := getJSON(context.Background(), http.DefaultClient, url, &resp); err != nil {
		return err
	}
	spans := map[string][]float64{}
	for _, t := range resp.Traces {
		if t.Root == nil {
			continue
		}
		for _, c := range t.Root.Children {
			spans[c.Name] = append(spans[c.Name], c.DurationMS*1e3)
		}
	}
	for _, name := range []string{"decode", "lookup", "render"} {
		if len(spans[name]) == 0 {
			return fmt.Errorf("no %q spans among %d %s traces", name, len(resp.Traces), endpoint)
		}
		e.set("serve.span_"+name+"_us", median(spans[name]))
	}
	return nil
}

// daemonMetrics flips the reload fleet daemonFlips times with no other
// load and reads the publisher's reload accounting, CPU and memory. It
// also times FetchToFile and OpenFile against the live publisher. It
// returns the flips' freshness in ms.
func daemonMetrics(e *env, f *fleet, ch *chain) ([]float64, error) {
	c := conn()
	defer c.CloseIdleConnections()
	cycles0, err := reloadCycles(f.pub.url)
	if err != nil {
		return nil, err
	}
	pub0, _, err := f.cpu()
	if err != nil {
		return nil, err
	}
	var fresh []float64
	for i := 0; i < daemonFlips; i++ {
		k := ch.next()
		d, err := ch.flip(c, f.rep.url, k)
		if err != nil {
			e.tally.fail("flip to epoch %d: %v", k, err)
			return nil, err
		}
		e.tally.ok()
		fresh = append(fresh, ms(d))
	}
	pub1, _, err := f.cpu()
	if err != nil {
		return nil, err
	}
	var st statusz
	if err := getJSON(context.Background(), http.DefaultClient, f.pub.url+"/statusz", &st); err != nil {
		return nil, err
	}
	reloads := float64(st.Reload.Cycles - cycles0)
	if reloads <= 0 {
		return nil, fmt.Errorf("publisher made no reloads over %d flips", daemonFlips)
	}
	e.set("daemon.reloads_per_flip", reloads/daemonFlips)
	e.set("daemon.publisher_cpu_ms_per_reload", ms(pub1-pub0)/reloads)
	var durs []float64
	for _, ev := range st.Reload.History {
		if ev.OK {
			durs = append(durs, float64(ev.DurationMS))
		}
	}
	e.set("daemon.reload_ms", median(durs))
	pubRSS, repRSS, err := f.rss()
	if err != nil {
		return nil, err
	}
	e.set("daemon.publisher_rss_mb", mib(pubRSS))
	e.set("daemon.replica_rss_mb", mib(repRSS))

	dir := filepath.Join(f.dir, "fetch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var fetch, open []float64
	for i := 0; i < fetchRepeats; i++ {
		fetcher := snapstore.NewFetcher(f.pub.url+"/snapshot/current", snapstore.FetcherOptions{})
		t0 := time.Now()
		path, _, err := fetcher.FetchToFile(context.Background(), dir)
		if err != nil {
			return nil, err
		}
		fetch = append(fetch, ms(time.Since(t0)))
		t0 = time.Now()
		ld, err := snapstore.OpenFile(path, snapstore.OpenOptions{})
		if err != nil {
			return nil, err
		}
		open = append(open, ms(time.Since(t0)))
		ld.Snap.Release()
		os.Remove(path)
	}
	e.set("snapstore.fetch_ms", median(fetch))
	e.set("snapstore.open_ms", median(open))
	return fresh, nil
}

// statusz is the part of /statusz the benchmark reads.
type statusz struct {
	Reload struct {
		Cycles  int                 `json:"cycles"`
		History []serve.ReloadEvent `json:"history"`
	} `json:"reload"`
}

func reloadCycles(base string) (int, error) {
	var st statusz
	err := getJSON(context.Background(), http.DefaultClient, base+"/statusz", &st)
	return st.Reload.Cycles, err
}

// sink keeps the lookup rungs' results live.
var sink int64

// ladder times the in-process rungs of the lookup ladder on the
// snapshot the replica served, mapped from its newest generation file:
// LPM lookup, Snapshot.LookupAddr, and the service handler on a
// recorder, each over the workload's addresses.
func ladder(e *env, w workload, snapDir string, e2eP50 float64) error {
	path, err := newestSnapshot(snapDir)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	e.set("snapstore.mapped_mb", mib(fi.Size()))
	ld, err := snapstore.OpenFile(path, snapstore.OpenOptions{})
	if err != nil {
		return err
	}
	snap := ld.Snap
	addrs, err := parseAddrs(w.ladderIPs())
	if err != nil {
		return err
	}
	lpm := snap.LPM()
	var lpmNS, addrNS []float64
	for r := 0; r < ladderRounds; r++ {
		t0 := time.Now()
		for _, a := range addrs {
			if i, ok := lpm.Lookup(a); ok {
				sink += int64(i)
			}
		}
		lpmNS = append(lpmNS, float64(time.Since(t0).Nanoseconds())/float64(len(addrs)))
		t0 = time.Now()
		for _, a := range addrs {
			if inf := snap.LookupAddr(a); inf != nil {
				sink += int64(inf.Prefix.Len)
			}
		}
		addrNS = append(addrNS, float64(time.Since(t0).Nanoseconds())/float64(len(addrs)))
	}
	e.set("netutil.lpm_lookup_ns", median(lpmNS))
	e.set("serve.lookup_addr_ns", median(addrNS))

	// The handler rung: the service's whole handler (middleware, decode,
	// lookup, render) with no network, on a writer that only counts.
	s := serve.New(serve.Config{Build: func(context.Context) (*serve.Snapshot, error) { return snap, nil }})
	if err := s.Reload(context.Background(), true); err != nil {
		return err
	}
	h := s.Handler()
	n := handlerSingle
	var handlerUS, allocs []float64
	var bytesOut int
	for r := 0; r < handlerRounds; r++ {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = w.request(r*n + i)
		}
		cw := &countingWriter{header: http.Header{}}
		lat := make([]float64, 0, n)
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for _, req := range reqs {
			cw.reset()
			t0 := time.Now()
			h.ServeHTTP(cw, req)
			lat = append(lat, us(time.Since(t0)))
			if cw.status != http.StatusOK {
				return fmt.Errorf("handler rung: %s answered %d", req.URL, cw.status)
			}
		}
		runtime.ReadMemStats(&ms1)
		handlerUS = append(handlerUS, median(lat))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
		bytesOut = cw.n
	}
	hp50 := median(handlerUS)
	e.set("serve.handler_us", hp50)
	e.set("serve.handler_allocs", median(allocs))
	e.set("serve.response_bytes", float64(bytesOut))
	e.set("http.overhead_us", remainder(e2eP50, hp50))
	return nil
}

// countingWriter is a ResponseWriter that keeps only the status and the
// body length.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}
func (w *countingWriter) reset() {
	clear(w.header)
	w.status, w.n = 0, 0
}

// ledger times every reload stage over the churn chain by calling the
// modules' public functions in-process: epoch 0 is a set-up (load, full
// inference, build, encode, publish); every later epoch is loaded twice
// and taken both ways, the delta path (InferDelta against the previous
// epoch, PatchSnapshot) and the full path (Infer, NewSnapshot), so the
// two sit side by side on the same epochs. Every built snapshot's Table
// 1 must equal the epoch's reference.
func ledger(e *env) error {
	store, err := snapstore.Open(filepath.Join(e.work, "ledger-store"), snapstore.StoreOptions{})
	if err != nil {
		return err
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	checkTable1 := func(k int, what string, snap *serve.Snapshot) {
		if bytes.Equal(snap.Table1(), e.in.Epochs[k].Table1) {
			e.tally.ok()
		} else {
			e.tally.fail("ledger epoch %d: %s snapshot's Table 1 differs from the full-inference reference", k, what)
		}
	}
	var prev *ipleasing.Generation
	var prevSnap *serve.Snapshot
	fallbacks := 0
	for k, ep := range e.in.Epochs {
		if k > 0 {
			ds, sum, err := tracedLoad(ep.Dir, add)
			if err != nil {
				return err
			}
			tr := telemetry.NewTrace("delta")
			runtime.GC()
			t0 := time.Now()
			gen, rep := ipleasing.InferDelta(tr.Context(context.Background()), ds, sum, ipleasing.Options{},
				prev, ipleasing.DeltaChurnFallback)
			add("delta.infer_ms", ms(time.Since(t0)))
			tr.End()
			if d, ok := spanMS(tr.Tree(), "delta.diff"); ok {
				add("delta.diff_ms", d)
			}
			if rep.Stats != nil {
				add("delta.dirty_ratio", rep.Stats.DirtyRatio())
			}
			if rep.Mode != serve.ModeDelta {
				fallbacks++
				prevSnap = serve.NewSnapshot(gen.Result, sum.Reports, sum.SkippedAnalyses)
			} else {
				runtime.GC()
				t0 = time.Now()
				prevSnap = serve.PatchSnapshot(prevSnap, gen.Result, rep.Plan, sum.Reports, sum.SkippedAnalyses)
				add("serve.patch_ms", ms(time.Since(t0)))
			}
			checkTable1(k, "delta", prevSnap)
			prev = gen
		}

		ds, sum, err := tracedLoad(ep.Dir, add)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		res := ds.Infer(ipleasing.Options{})
		add("core.infer_ms", ms(time.Since(t0)))
		runtime.GC()
		t0 = time.Now()
		snap := serve.NewSnapshot(res, sum.Reports, sum.SkippedAnalyses)
		add("serve.build_ms", ms(time.Since(t0)))
		checkTable1(k, "full", snap)
		if k == 0 {
			prev = &ipleasing.Generation{Dataset: ds, Summary: sum, Result: res}
			prevSnap = snap
		}
		runtime.GC()
		t0 = time.Now()
		data := snapstore.Encode(snap, uint64(k+1))
		add("snapstore.encode_ms", ms(time.Since(t0)))
		add("snapstore.snapshot_mb", mib(int64(len(data))))
		t0 = time.Now()
		if err := store.PublishEncoded(data); err != nil {
			return err
		}
		add("snapstore.publish_ms", ms(time.Since(t0)))
	}
	for name, vs := range samples {
		e.set(name, median(vs))
	}
	e.set("delta.fallbacks", float64(fallbacks))
	for _, name := range []string{"delta.diff_ms", "delta.dirty_ratio", "serve.patch_ms"} {
		if _, ok := samples[name]; !ok {
			return fmt.Errorf("ledger: no epoch took the delta path, so %s is unmeasured", name)
		}
	}
	return nil
}

// tracedLoad loads a dataset under a trace and records the load's
// wall time, allocation and per-source spans.
func tracedLoad(dir string, add func(string, float64)) (*ipleasing.Dataset, *ipleasing.LoadSummary, error) {
	tr := telemetry.NewTrace("load")
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	ds, sum, err := ipleasing.LoadDatasetReportContext(tr.Context(context.Background()), dir, ipleasing.LenientLoad())
	d := time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("load %s: %w", dir, err)
	}
	runtime.ReadMemStats(&ms1)
	tr.End()
	add("load.parse_ms", ms(d))
	add("load.alloc_mb", mib(int64(ms1.TotalAlloc-ms0.TotalAlloc)))
	root := tr.Tree()
	for _, src := range []string{"whois", "rpki", "merge"} {
		if v, ok := spanMS(root, "load."+src); ok {
			add("load."+src+"_ms", v)
		}
	}
	// The two RIB collectors parse in parallel; the slower one is the
	// stage's critical path.
	bgp := 0.0
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "load.bgp/") && c.DurationMS > bgp {
			bgp = c.DurationMS
		}
	}
	add("load.bgp_ms", bgp)
	return ds, sum, nil
}

// spanMS finds the first span called name under n, depth first.
func spanMS(n *telemetry.SpanNode, name string) (float64, bool) {
	if n.Name == name {
		return n.DurationMS, true
	}
	for _, c := range n.Children {
		if v, ok := spanMS(c, name); ok {
			return v, true
		}
	}
	return 0, false
}
