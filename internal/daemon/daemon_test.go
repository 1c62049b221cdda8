package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ipleasing"
	"ipleasing/internal/serve"
	"ipleasing/internal/telemetry"
)

func dataset(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	if err := ipleasing.Generate(ipleasing.Config{Seed: 11, Scale: 0.005}).WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// logBuffer is a goroutine-safe log sink: run's logger writes from the
// daemon goroutine while assertions read from the test goroutine.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs the daemon against dir on an ephemeral port and
// returns its base URL and a channel carrying run's exit error.
func startDaemon(t *testing.T, dir string, cfg Config) (string, *logBuffer, chan error) {
	t.Helper()
	cfg.Data = dir
	cfg.Addr = "127.0.0.1:0"
	if cfg.Drain == 0 {
		cfg.Drain = 5 * time.Second
	}
	logs := &logBuffer{}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- Run(context.Background(), cfg, logs, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, logs, errc
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// reloadCycles pulls the completed reload-cycle count out of /statusz.
func reloadCycles(t *testing.T, base string) int {
	t.Helper()
	_, body := getBody(t, base+"/statusz")
	var st struct {
		Reload struct {
			Cycles int `json:"cycles"`
		} `json:"reload"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	return st.Reload.Cycles
}

// TestDaemonLifecycle boots the daemon, exercises every endpoint, forces
// a SIGHUP reload, and shuts down gracefully with SIGTERM.
func TestDaemonLifecycle(t *testing.T) {
	dir := dataset(t)
	base, logs, errc := startDaemon(t, dir, Config{})

	if code, body := getBody(t, base+"/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz: code %d body %s", code, body)
	}
	if code, body := getBody(t, base+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz: code %d body %s", code, body)
	}
	if code, body := getBody(t, base+"/table1"); code != 200 || !strings.Contains(body, "Table 1") {
		t.Errorf("/table1: code %d body %s", code, body)
	}
	if code, body := getBody(t, base+"/loadreport"); code != 200 || !strings.Contains(body, "whois/") {
		t.Errorf("/loadreport: code %d body %s", code, body)
	}
	if code, body := getBody(t, base+"/lookup?ip=203.0.113.99"); code != 200 || !strings.Contains(body, "query") {
		t.Errorf("/lookup: code %d body %s", code, body)
	}
	resp, err := http.Post(base+"/lookup/batch", "application/json",
		strings.NewReader(`{"ips": ["203.0.113.99", "not-an-ip"]}`))
	if err != nil {
		t.Fatalf("POST /lookup/batch: %v", err)
	}
	batchBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(batchBody), `"results"`) ||
		!strings.Contains(string(batchBody), `"error"`) {
		t.Errorf("/lookup/batch: code %d body %s", resp.StatusCode, batchBody)
	}
	if n := reloadCycles(t, base); n != 1 {
		t.Errorf("reload cycles after boot = %d, want 1", n)
	}

	// SIGHUP: a forced reload lands a second cycle.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for reloadCycles(t, base) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never completed; logs:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := getBody(t, base+"/readyz"); code != 200 {
		t.Errorf("/readyz after SIGHUP reload: code %d", code)
	}

	// SIGTERM: graceful exit, nil error, drain logged.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	if !strings.Contains(logs.String(), "draining") || !strings.Contains(logs.String(), "drained") {
		t.Errorf("drain not logged:\n%s", logs.String())
	}

	// The listener is down: new requests fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("request succeeded after shutdown")
	}
}

// TestInitialLoadFailureIsFatal: a daemon with nothing to serve must
// refuse to start, not sit unready.
func TestInitialLoadFailureIsFatal(t *testing.T) {
	err := Run(context.Background(), Config{
		Data: filepath.Join(t.TempDir(), "nope"),
		Addr: "127.0.0.1:0",
	}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "initial load") {
		t.Fatalf("run over missing dataset = %v, want initial-load error", err)
	}
}

// TestStrictFlagRejectsCorruptDataset: with -strict, a dataset that the
// lenient policy would repair fails the initial load.
func TestStrictFlagRejectsCorruptDataset(t *testing.T) {
	dir := dataset(t)
	// A garbage line anywhere in a registry dump is fatal to strict
	// ingestion and invisible to lenient ingestion's availability.
	path := filepath.Join(dir, "ripe.db")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte("\nGARBAGE NOT RPSL\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = Run(context.Background(), Config{Data: dir, Addr: "127.0.0.1:0", Strict: true}, io.Discard, nil)
	if err == nil {
		t.Fatal("strict daemon started over corrupt dataset")
	}
	// The same dataset under the default lenient policy serves fine.
	base, _, errc := startDaemon(t, dir, Config{})
	code, body := getBody(t, base+"/loadreport")
	if code != 200 || !strings.Contains(body, `"skipped": 1`) {
		t.Errorf("lenient /loadreport: code %d body %s", code, body)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// TestStrictDaemonIgnoresUnreadSources: a strict daemon parses only the
// sources the inference reads, so a malformed row in the geolocation
// panel, the ground-truth file or an RPKI VRP snapshot — fatal to a
// strict full load — must not keep it from starting, and neither its
// /loadreport nor its ingest metrics may mention a source it never
// parsed.
func TestStrictDaemonIgnoresUnreadSources(t *testing.T) {
	served := []string{"whois/RIPE", "whois/ARIN", "whois/APNIC", "whois/AFRINIC", "whois/LACNIC",
		"bgp/rib.routeviews.mrt", "bgp/rib.ris.mrt", "asrel", "as2org"}
	for _, tc := range []struct {
		name, glob, row string
	}{
		{"geofeed", "geo/geofeed-*.csv", "198.51.100.0/33,ZZ\n"},
		{"groundtruth", "groundtruth.csv", "RIPE,not-a-prefix,leased,true\n"},
		{"rpki", "rpki/vrps-*.csv", "AS64500,203.0.113.999/24,24,test\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := dataset(t)
			paths, err := filepath.Glob(filepath.Join(dir, tc.glob))
			if err != nil || len(paths) == 0 {
				t.Fatalf("no %s in %s: %v", tc.glob, dir, err)
			}
			path := paths[0]
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.row); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// The damage is real: a strict full load rejects it.
			if _, _, err := ipleasing.LoadDatasetReport(dir, ipleasing.StrictLoad()); err == nil {
				t.Fatalf("strict full load accepted the bad row in %s", path)
			}

			ctx, cancel := context.WithCancel(context.Background())
			base, _, errc := startDaemonCtx(t, ctx, dir, Config{Strict: true})
			defer stopDaemon(t, cancel, errc)

			if code, body := getBody(t, base+"/readyz"); code != 200 {
				t.Errorf("/readyz: code %d body %s", code, body)
			}
			code, body := getBody(t, base+"/loadreport")
			var lr struct {
				Strict  bool `json:"strict"`
				Reports []struct {
					Source string `json:"source"`
				} `json:"reports"`
			}
			if err := json.Unmarshal([]byte(body), &lr); code != 200 || err != nil {
				t.Fatalf("/loadreport: code %d err %v body %s", code, err, body)
			}
			var got []string
			for _, r := range lr.Reports {
				got = append(got, r.Source)
			}
			if !lr.Strict || strings.Join(got, " ") != strings.Join(served, " ") {
				t.Errorf("/loadreport strict=%v sources %v, want strict sources %v", lr.Strict, got, served)
			}
			_, metrics := getBody(t, base+"/metrics")
			if !strings.Contains(metrics, `ingest_parsed_records_total{source="whois/RIPE"}`) {
				t.Error("/metrics lacks the served sources' ingest counters")
			}
			for _, line := range strings.Split(metrics, "\n") {
				if strings.HasPrefix(line, "ingest_") &&
					(strings.Contains(line, `source="geo"`) || strings.Contains(line, `source="rpki"`)) {
					t.Errorf("/metrics has an ingest counter for an unread source: %s", line)
				}
			}
		})
	}
}

func TestBuilderUsage(t *testing.T) {
	// The builder wires the config's dataset dir: a wrong dir errors.
	b := newSnapshotBuilder(Config{Data: "does-not-exist"})
	if _, err := b.buildFull(context.Background()); err == nil {
		t.Fatal("full build over missing dir succeeded")
	}
}

// TestDeltaBaselineNeedsTimer pins that a publisher's reloads are all
// the same full rebuild, timer or not and churn or not: every unforced
// reload runs ok mode=full, and /metrics carries neither a delta mode
// nor the retired delta families (dirty shards, changed keys, LPM patch
// operations). "with delta" churns the dataset between the boot load
// and the first timer reload; "without delta" reloads the same bytes.
func TestDeltaBaselineNeedsTimer(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		reload time.Duration
		churn  bool
	}{
		{"no timer", 0, false},
		{"timer with delta", 20 * time.Millisecond, true},
		{"timer without delta", 20 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world := ipleasing.Generate(ipleasing.Config{Seed: 11, Scale: 0.005})
			dir := filepath.Join(t.TempDir(), "ds")
			if err := world.WriteDir(dir); err != nil {
				t.Fatal(err)
			}
			cfg := Config{Data: dir, Reload: tc.reload}
			reg := telemetry.NewRegistry()
			snaps, err := newSnapshots(cfg, nil, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer snaps.close()
			scfg := serveConfig(cfg, newSnapshotBuilder(cfg), snaps, nil, reg)
			if scfg.ReloadEvery != tc.reload {
				t.Fatalf("ReloadEvery = %v, want %v", scfg.ReloadEvery, tc.reload)
			}
			s := serve.New(scfg)
			if err := s.Reload(ctx, true); err != nil {
				t.Fatal(err)
			}
			if tc.churn {
				ipleasing.Mutate(world, ipleasing.MutateConfig{Seed: 12, Churn: 0.05})
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
				if err := world.WriteDir(dir); err != nil {
					t.Fatal(err)
				}
			}
			if tc.reload == 0 {
				// No timer issues unforced reloads here; run the one it
				// would have.
				if err := s.Reload(ctx, false); err != nil {
					t.Fatal(err)
				}
			} else {
				lctx, cancel := context.WithCancel(ctx)
				done := make(chan struct{})
				go func() { defer close(done); s.ReloadLoop(lctx) }()
				defer func() { cancel(); <-done }()
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				if ev := s.LastReload(); ev != nil && !ev.Forced {
					if !ev.OK || ev.Mode != serve.ModeFull {
						t.Fatalf("first unforced reload = %+v, want ok mode=%s", ev, serve.ModeFull)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no unforced reload")
				}
				time.Sleep(5 * time.Millisecond)
			}

			rec := httptest.NewRecorder()
			reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			metrics := rec.Body.String()
			if !strings.Contains(metrics, `reload_cycles_by_mode_total{mode="full"}`) {
				t.Error("/metrics lacks the full reload mode")
			}
			for _, gone := range []string{`mode="delta"`, "reload_dirty_shards", "reload_changed_keys_total", "lpm_patch_ops_total"} {
				if strings.Contains(metrics, gone) {
					t.Errorf("/metrics carries %s", gone)
				}
			}
		})
	}
}

// TestHTTPServerHardened pins the connection-pinning bounds: every
// timeout dimension of the daemon's HTTP server is finite, and Config
// overrides land where they should.
func TestHTTPServerHardened(t *testing.T) {
	srv := newHTTPServer(Config{}, nil)
	if srv.ReadHeaderTimeout != DefaultReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, DefaultReadHeaderTimeout)
	}
	if srv.ReadTimeout != DefaultReadTimeout {
		t.Errorf("ReadTimeout = %v, want %v", srv.ReadTimeout, DefaultReadTimeout)
	}
	if srv.WriteTimeout != DefaultWriteTimeout {
		t.Errorf("WriteTimeout = %v, want %v", srv.WriteTimeout, DefaultWriteTimeout)
	}
	if srv.IdleTimeout != DefaultIdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, DefaultIdleTimeout)
	}
	if srv.MaxHeaderBytes != DefaultMaxHeaderBytes {
		t.Errorf("MaxHeaderBytes = %d, want %d", srv.MaxHeaderBytes, DefaultMaxHeaderBytes)
	}
	srv = newHTTPServer(Config{
		ReadTimeout:  time.Second,
		WriteTimeout: 2 * time.Second,
		IdleTimeout:  3 * time.Second,
	}, nil)
	if srv.ReadTimeout != time.Second || srv.WriteTimeout != 2*time.Second || srv.IdleTimeout != 3*time.Second {
		t.Errorf("overrides not applied: read=%v write=%v idle=%v",
			srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
}

// TestSlowBodyPostIsReaped proves the slowloris fix end to end: a
// POST /lookup/batch that declares a body and then trickles nothing is
// cut by ReadTimeout instead of pinning a connection (and, under the
// old configuration, a limiter slot) forever.
func TestSlowBodyPostIsReaped(t *testing.T) {
	dir := dataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	base, _, errc := startDaemonCtx(t, ctx, dir, Config{ReadTimeout: 300 * time.Millisecond})
	defer stopDaemon(t, cancel, errc)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers complete, body promised but never sent.
	if _, err := io.WriteString(conn,
		"POST /lookup/batch HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"ips\""); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	start := time.Now()
	// The server must terminate the exchange (error response or close)
	// well before our own 10s guard: read until EOF or response bytes.
	n, rerr := conn.Read(buf)
	elapsed := time.Since(start)
	if rerr == nil && n > 0 {
		// A response (likely 400 after the body timeout) is fine too —
		// the point is the connection did not hang until our deadline.
		rerr = io.EOF
	}
	if elapsed > 5*time.Second {
		t.Fatalf("slow-body connection survived %v; ReadTimeout not enforced", elapsed)
	}
	// The daemon is still healthy afterwards.
	if code, _ := getBody(t, base+"/healthz"); code != 200 {
		t.Errorf("/healthz after slowloris: code %d", code)
	}
}
