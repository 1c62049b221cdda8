package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/telemetry"
	"ipleasing/internal/whois"
)

// richLeafSnapshot is randomLeafSnapshot with every optional inference
// field populated the way a real load fills them, so rendered bodies
// have realistic size and shape.
func richLeafSnapshot(rng *rand.Rand, n int) *Snapshot {
	regs := []whois.Registry{whois.ARIN, whois.RIPE, whois.APNIC, whois.LACNIC, whois.AFRINIC}
	asns := func(k int) []uint32 {
		out := make([]uint32, k)
		for i := range out {
			out[i] = 1 + uint32(rng.Intn(400000))
		}
		return out
	}
	infs := make([]core.Inference, 0, n)
	for i := 0; i < n; i++ {
		base := uint32(rng.Intn(8))<<28 | rng.Uint32()>>4
		p := netutil.Prefix{Base: netutil.Addr(base), Len: uint8(20 + rng.Intn(9))}.Canonicalize()
		inf := core.Inference{
			Registry:    regs[rng.Intn(len(regs))],
			Prefix:      p,
			Category:    core.Category(rng.Intn(int(core.Orphan) + 1)),
			Root:        netutil.Prefix{Base: p.Base, Len: 8}.Canonicalize(),
			HolderOrg:   fmt.Sprintf("ORG-H%d-RIPE", rng.Intn(5000)),
			RootASNs:    asns(rng.Intn(3)),
			RootOrigins: asns(rng.Intn(3)),
			LeafOrigins: asns(1 + rng.Intn(2)),
			NetName:     fmt.Sprintf("NET-%d", rng.Intn(100000)),
			Country:     "NL",
		}
		if rng.Intn(2) == 0 {
			inf.Facilitators = []string{fmt.Sprintf("MNT-%d", rng.Intn(300))}
		}
		infs = append(infs, inf)
	}
	return snapshotOf(infs)
}

// benchServer is a primed server over the handler benchmark world: 8192
// rich leaves, stamped with a generation so the response carries the
// generation header the way a daemon with a snapshot store answers.
func benchServer(tb testing.TB) (*Server, *Snapshot) {
	tb.Helper()
	snap := richLeafSnapshot(rand.New(rand.NewSource(2)), 8192)
	snap.Generation = 1234
	s := New(Config{Build: func(context.Context) (*Snapshot, error) { return snap, nil }})
	if err := s.Reload(context.Background(), true); err != nil {
		tb.Fatal(err)
	}
	return s, snap
}

// discardWriter is a ResponseWriter that keeps only the status and the
// body length, reusing one header map across requests.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}
func (w *discardWriter) reset() {
	clear(w.header)
	w.status, w.n = 0, 0
}

// BenchmarkHandlerLookup is the handler rung of the request ladder: one
// /lookup?ip= request through the whole routed handler (middleware,
// deadline, query scan, lookup, render) with no network. Its allocs/op
// is gated absolutely in scripts/check.sh.
func BenchmarkHandlerLookup(b *testing.B) {
	s, snap := benchServer(b)
	addrs := addrsForBench(snap, 1024)
	reqs := make([]*http.Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/lookup?ip="+a.String(), nil)
	}
	h := s.Handler()
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkHandlerLookupBatch is the same rung for one /lookup/batch
// request of 1000 addresses.
func BenchmarkHandlerLookupBatch(b *testing.B) {
	s, snap := benchServer(b)
	var body bytes.Buffer
	body.WriteString(`{"ips": [`)
	for i, a := range addrsForBench(snap, 1000) {
		if i > 0 {
			body.WriteString(", ")
		}
		fmt.Fprintf(&body, "%q", a.String())
	}
	body.WriteString("]}")
	payload := body.Bytes()
	rd := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/lookup/batch", rd)
	h := s.Handler()
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		rd.Reset(payload)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// endpointCounts reads one endpoint's counters from /statusz.
func endpointCounts(t *testing.T, ts *httptest.Server, name string) statuszCounts {
	t.Helper()
	_, body, _ := get(t, ts, "/statusz")
	var st statuszResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	return st.Endpoints[name]
}

// TestStalledBatchBodyTimesOutWithinBudget sends a /lookup/batch whose
// body stops mid-way. The body read is cut at the request deadline, so
// the client gets its 503 within about RequestTimeout even though the
// server's own ReadTimeout would let the read hang for 30s.
func TestStalledBatchBodyTimesOutWithinBudget(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout = 30 * time.Second
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /lookup/batch HTTP/1.1\r\nHost: x\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"ips\": [\"10.0.0.1\""); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to the stalled body: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != timeoutBody {
		t.Errorf("stalled body: code %d body %q, want 503 %q", resp.StatusCode, body, timeoutBody)
	}
	if elapsed < 200*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("stalled body answered after %v, want about the 200ms budget", elapsed)
	}
	if c := endpointCounts(t, ts, "lookup_batch"); c.Errors != 1 {
		t.Errorf("lookup_batch errors = %d, want 1", c.Errors)
	}
}

// TestDeafHandlerKeepsLimiterSlot runs a handler that ignores its
// context past the deadline. It keeps its limiter slot until it really
// returns, so a concurrent request is shed rather than admitted on top
// of work still running; the overrun itself still answers 503.
func TestDeafHandlerKeepsLimiterSlot(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	entered := make(chan struct{})
	s.route("deaf", "/deaf", true, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/deaf")
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered
	time.Sleep(150 * time.Millisecond) // well past the 50ms deadline
	if code, _, _ := get(t, ts, "/lookup?prefix=10.0.0.0/24"); code != http.StatusTooManyRequests {
		t.Errorf("request beside an overrun handler: code %d, want 429", code)
	}
	close(release)
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Errorf("overrun handler: code %d, want 503", code)
	}
	if c := endpointCounts(t, ts, "deaf"); c.Errors != 1 {
		t.Errorf("deaf errors = %d, want 1", c.Errors)
	}
	if c := endpointCounts(t, ts, "lookup"); c.Shed != 1 {
		t.Errorf("lookup shed = %d, want 1", c.Shed)
	}
	if code, _, _ := get(t, ts, "/lookup?prefix=10.0.0.0/24"); code != http.StatusOK {
		t.Errorf("lookup after the slot freed: code %d, want 200", code)
	}
}

// TestTimedOutResponseDropsHandlerHeaders checks the 503 carries none
// of the headers the handler set before the deadline (the JSON content
// type, the snapshot generation) while the middleware's own trace ID
// survives.
func TestTimedOutResponseDropsHandlerHeaders(t *testing.T) {
	s := newTestServer(t, Config{
		RequestTimeout: 50 * time.Millisecond,
		Traces:         telemetry.NewTracePlane(telemetry.TracePlaneOptions{SampleRate: 1, Seed: 1}),
		Build: func(context.Context) (*Snapshot, error) {
			snap := testSnapshot()
			snap.Generation = 7
			return snap, nil
		},
	})
	s.route("late", "/late", true, func(w http.ResponseWriter, r *http.Request) {
		snap := s.acquireSnap()
		defer snap.Release()
		setGenerationHeader(w, snap)
		w.Header()["Content-Type"] = jsonContentType
		<-r.Context().Done()
		renderLookup(w, "ip", "10.0.0.1", snap.BuiltAt, snap.LookupAddr(1), nil)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts, "/late")
	if code != http.StatusServiceUnavailable || body != timeoutBody {
		t.Fatalf("/late: code %d body %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); strings.Contains(ct, "json") {
		t.Errorf("timed-out response Content-Type = %q", ct)
	}
	if g := hdr.Get(GenerationHeader); g != "" {
		t.Errorf("timed-out response carries %s: %q", GenerationHeader, g)
	}
	if id := hdr.Get("X-Trace-Id"); len(id) != 32 {
		t.Errorf("timed-out response lost X-Trace-Id (%q)", id)
	}
	// The same handler state on a committed lookup keeps both headers.
	if _, _, hdr := get(t, ts, "/lookup?ip=10.0.0.1"); hdr.Get(GenerationHeader) != "7" ||
		hdr.Get("Content-Type") != "application/json" {
		t.Errorf("lookup headers = %v", hdr)
	}
}

// TestRoutedHandlerReachesConnection drives http.ResponseController
// through the middleware's writer on limited and unlimited routes: Flush
// and the connection deadlines must reach the real connection.
func TestRoutedHandlerReachesConnection(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, limited := range []bool{true, false} {
		name := fmt.Sprintf("rc_%v", limited)
		s.Route(name, "/"+name, limited, func(w http.ResponseWriter, r *http.Request) {
			rc := http.NewResponseController(w)
			err := errors.Join(
				rc.SetReadDeadline(time.Now().Add(time.Minute)),
				rc.SetWriteDeadline(time.Now().Add(time.Minute)))
			io.WriteString(w, "flushed ")
			err = errors.Join(err, rc.Flush())
			fmt.Fprint(w, err)
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, name := range []string{"rc_true", "rc_false"} {
		if code, body, _ := get(t, ts, "/"+name); code != 200 || body != "flushed <nil>" {
			t.Errorf("/%s: code %d body %q, want the controller to reach the connection", name, code, body)
		}
	}
}

// TestHandlerLookupAllocs pins the handler rung's allocation budget in
// the tier-1 suite, beside the check.sh gate on BenchmarkHandlerLookup.
func TestHandlerLookupAllocs(t *testing.T) {
	s, snap := benchServer(t)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/lookup?ip="+snap.infs[0].Prefix.Base.String(), nil)
	w := &discardWriter{header: http.Header{}}
	if n := testing.AllocsPerRun(200, func() {
		w.reset()
		h.ServeHTTP(w, req)
	}); n > 8 {
		t.Errorf("handler lookup allocates %v times per request, budget 8", n)
	}
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
}
