package daemon

// End-to-end persistence and replication: a publisher daemon writing
// binary generations to -snapshot-dir, a cold start that serves them
// without the dataset, and a replica with no dataset chained off
// /snapshot/current that keeps serving through a publisher outage.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ipleasing/internal/serve"
	"ipleasing/internal/snapstore"
)

// startDaemonCtx is startDaemon under a caller-owned context, so a test
// can stop one daemon (publisher) while another (replica) keeps
// running — signals would hit both, they share the process.
func startDaemonCtx(t *testing.T, ctx context.Context, dir string, cfg Config) (string, *logBuffer, chan error) {
	t.Helper()
	cfg.Data = dir
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Drain == 0 {
		cfg.Drain = 5 * time.Second
	}
	logs := &logBuffer{}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- Run(ctx, cfg, logs, func(addr string) { ready <- addr })
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

func stopDaemon(t *testing.T, cancel context.CancelFunc, errc chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on context cancel")
	}
}

// originASN returns an ASN that originates a classified leaf in the
// newest generation stored in dir.
func originASN(t *testing.T, dir string) string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(dir, "gen-*.snap"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("no generation file in %s (%v)", dir, err)
	}
	sort.Strings(gens)
	ld, err := snapstore.OpenFile(gens[len(gens)-1], snapstore.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Snap.Release()
	for _, inf := range ld.Snap.FlatInferences() {
		if len(inf.LeafOrigins) > 0 {
			return strconv.FormatUint(uint64(inf.LeafOrigins[0]), 10)
		}
	}
	t.Fatal("no classified leaf has an origin ASN")
	return ""
}

// snapshotCurrentGen reads the generation header off /snapshot/current.
func snapshotCurrentGen(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/snapshot/current")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/snapshot/current: status %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("/snapshot/current served without an ETag")
	}
	return resp.Header.Get("X-Snapshot-Generation")
}

// TestDaemonPersistsAndColdStarts: run one gets a dataset and leaves a
// durable generation behind; run two has no dataset at all and must
// serve identically from the store, without publishing a new
// generation of the same bytes.
func TestDaemonPersistsAndColdStarts(t *testing.T) {
	dir := dataset(t)
	snapDir := filepath.Join(t.TempDir(), "snaps")

	ctx1, cancel1 := context.WithCancel(context.Background())
	base, _, errc1 := startDaemonCtx(t, ctx1, dir, Config{SnapshotDir: snapDir})
	_, table1 := getBody(t, base+"/table1")
	_, lookup := getBody(t, base+"/lookup?ip=203.0.113.99")
	if gen := snapshotCurrentGen(t, base); gen != "1" {
		t.Errorf("published generation = %q, want 1", gen)
	}
	_, metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, `snapshot_publish_total{outcome="ok"} 1`) {
		t.Errorf("/metrics missing publish counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "snapshot_bytes ") || strings.Contains(metrics, "snapshot_bytes 0") {
		t.Errorf("/metrics snapshot_bytes missing or zero")
	}
	stopDaemon(t, cancel1, errc1)

	// The dataset is gone. A cold start must not need it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	base2, logs2, errc2 := startDaemonCtx(t, ctx2, dir, Config{SnapshotDir: snapDir})
	defer stopDaemon(t, cancel2, errc2)

	if !strings.Contains(logs2.String(), "cold start from snapshot store") {
		t.Errorf("cold start not logged:\n%s", logs2.String())
	}
	if _, got := getBody(t, base2+"/table1"); got != table1 {
		t.Error("cold-started /table1 diverged from the run that wrote the snapshot")
	}
	if _, got := getBody(t, base2+"/lookup?ip=203.0.113.99"); got != lookup {
		t.Error("cold-started /lookup diverged from the run that wrote the snapshot")
	}
	// The restored generation is re-served, not re-published: still 1,
	// still exactly one file in the store.
	if gen := snapshotCurrentGen(t, base2); gen != "1" {
		t.Errorf("generation after cold start = %q, want 1", gen)
	}
	_, metrics2 := getBody(t, base2+"/metrics")
	if !strings.Contains(metrics2, `snapshot_load_total{outcome="ok"} 1`) {
		t.Errorf("/metrics missing load counter after cold start:\n%s", metrics2)
	}
	if strings.Contains(metrics2, `snapshot_publish_total{outcome="ok"}`) {
		t.Errorf("cold start republished an unchanged generation:\n%s", metrics2)
	}
	ents, err := os.ReadDir(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			gens = append(gens, e.Name())
		}
	}
	if len(gens) != 1 {
		t.Errorf("store holds %v, want exactly the one generation", gens)
	}
}

// statuszModes reads a daemon's serving load mode and the mode of its
// last reload off /statusz.
func statuszModes(t *testing.T, base string) (loadMode, reloadMode string) {
	t.Helper()
	_, body := getBody(t, base+"/statusz")
	var st struct {
		Snapshot struct {
			LoadMode string `json:"load_mode"`
		} `json:"snapshot"`
		Reload struct {
			History []serve.ReloadEvent `json:"history"`
		} `json:"reload"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if n := len(st.Reload.History); n > 0 {
		reloadMode = st.Reload.History[n-1].Mode
	}
	return st.Snapshot.LoadMode, reloadMode
}

// postBody POSTs a JSON body and returns the response body.
func postBody(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReplicaServesAndSurvivesPublisherOutage: replicas with no
// dataset — one without SnapshotDir, one with its own store — serve
// the publisher's snapshot byte-for-byte, re-expose it for chaining,
// then keep serving — degraded, not down — when the publisher
// disappears. Every daemon answers from a generation opened from its
// own store file, so all three answer alike because they share the
// open path, not because a build and a decode happen to agree.
func TestReplicaServesAndSurvivesPublisherOutage(t *testing.T) {
	dir := dataset(t)
	pubSnaps := filepath.Join(t.TempDir(), "snaps")

	ctxP, cancelP := context.WithCancel(context.Background())
	pubBase, _, errcP := startDaemonCtx(t, ctxP, dir, Config{SnapshotDir: pubSnaps})

	ctxR, cancelR := context.WithCancel(context.Background())
	repBase, logsR, errcR := startDaemonCtx(t, ctxR,
		filepath.Join(t.TempDir(), "no-dataset-here"), Config{
			SnapshotURL: pubBase + "/snapshot/current",
			Poll:        50 * time.Millisecond,
		})
	defer stopDaemon(t, cancelR, errcR)

	ctxS, cancelS := context.WithCancel(context.Background())
	storeBase, _, errcS := startDaemonCtx(t, ctxS,
		filepath.Join(t.TempDir(), "no-dataset-here"), Config{
			SnapshotURL: pubBase + "/snapshot/current",
			SnapshotDir: filepath.Join(t.TempDir(), "replica-snaps"),
			Poll:        50 * time.Millisecond,
		})
	defer stopDaemon(t, cancelS, errcS)

	for _, m := range []struct{ name, base, load, reload string }{
		{"publisher", pubBase, serve.LoadModeMmap, serve.ModeFull},
		{"store-less replica", repBase, serve.LoadModeMmap, serve.ModeSnapshot},
		{"store replica", storeBase, serve.LoadModeMmap, serve.ModeSnapshot},
	} {
		if load, reload := statuszModes(t, m.base); load != m.load || reload != m.reload {
			t.Errorf("%s: load_mode %q, last reload mode %q; want %q, %q", m.name, load, reload, m.load, m.reload)
		}
	}

	// Byte-identical service across every query surface, a miss
	// included: synthetic ASNs start at 100000, so AS64500 is absent.
	present := "/lookup?asn=" + originASN(t, pubSnaps)
	for p, want := range map[string]string{present: `"found": true`, "/lookup?asn=64500": `"found": false`} {
		if _, body := getBody(t, pubBase+p); !strings.Contains(body, want) {
			t.Errorf("publisher %s lacks %s:\n%s", p, want, body)
		}
	}
	for _, p := range []string{"/table1", "/loadreport", "/lookup?ip=203.0.113.99", "/lookup?prefix=10.0.0.0/24", present, "/lookup?asn=64500"} {
		_, want := getBody(t, pubBase+p)
		for _, base := range []string{repBase, storeBase} {
			if _, got := getBody(t, base+p); got != want {
				t.Errorf("replica %s %s diverged:\n got: %s\nwant: %s", base, p, got, want)
			}
		}
	}
	batch := `{"ips": ["203.0.113.99", "10.0.0.1", "198.51.100.7", "not-an-ip"]}`
	want := postBody(t, pubBase+"/lookup/batch", batch)
	for _, base := range []string{repBase, storeBase} {
		if got := postBody(t, base+"/lookup/batch", batch); got != want {
			t.Errorf("replica %s /lookup/batch diverged:\n got: %s\nwant: %s", base, got, want)
		}
	}

	// The publisher re-serves the file it persisted, not a second copy.
	gens, err := filepath.Glob(filepath.Join(pubSnaps, "gen-*.snap"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("publisher store holds no generation file (%v)", err)
	}
	sort.Strings(gens)
	onDisk, err := os.ReadFile(gens[len(gens)-1])
	if err != nil {
		t.Fatal(err)
	}
	if _, served := getBody(t, pubBase+"/snapshot/current"); served != string(onDisk) {
		t.Errorf("publisher /snapshot/current (%d bytes) differs from its newest %s (%d bytes)",
			len(served), filepath.Base(gens[len(gens)-1]), len(onDisk))
	}
	// The replica chains: its own /snapshot/current serves the same
	// generation it fetched.
	if gen := snapshotCurrentGen(t, repBase); gen != "1" {
		t.Errorf("replica re-published generation %q, want 1", gen)
	}
	_, statusz := getBody(t, repBase+"/statusz")
	if !strings.Contains(statusz, `"source": "`+pubBase+`/snapshot/current"`) ||
		!strings.Contains(statusz, `"serving_generation": 1`) ||
		!strings.Contains(statusz, `"generation_lag": 0`) {
		t.Errorf("/statusz replication section wrong:\n%s", statusz)
	}
	_, metricsR := getBody(t, repBase+"/metrics")
	if !strings.Contains(metricsR, `replica_fetch_total{outcome="ok"} 1`) {
		t.Errorf("replica /metrics missing fetch counter:\n%s", metricsR)
	}
	if !strings.Contains(metricsR, "replica_generation_lag 0") {
		t.Errorf("replica /metrics missing lag gauge:\n%s", metricsR)
	}

	// Publisher goes away. The replica's polls fail, readiness degrades,
	// but queries keep answering from the last good generation.
	_, wantTable1 := getBody(t, repBase+"/table1")
	stopDaemon(t, cancelP, errcP)

	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := getBody(t, repBase+"/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, "degraded") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never degraded after publisher outage; readyz %d %s\nlogs:\n%s",
				code, body, logsR.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if code, got := getBody(t, repBase+"/table1"); code != 200 || got != wantTable1 {
		t.Errorf("degraded replica stopped serving: code %d", code)
	}
	_, statusz = getBody(t, repBase+"/statusz")
	if !strings.Contains(statusz, `"last_error"`) {
		t.Errorf("/statusz missing last_error during outage:\n%s", statusz)
	}
	if code, _ := getBody(t, repBase+"/healthz"); code != 200 {
		t.Errorf("degraded replica failed liveness: %d", code)
	}
	_, metricsR = getBody(t, repBase+"/metrics")
	if !strings.Contains(metricsR, `replica_fetch_total{outcome=`) {
		t.Errorf("replica /metrics lost fetch counters during outage:\n%s", metricsR)
	}
}

// TestDaemonsWithoutSnapshotDirServeFromPrivateStores: a publisher
// with only a dataset still publishes /snapshot/current, a replica
// with only a URL chains off it, both serve mapped generation files
// and answer alike, and each private store directory is gone once its
// Run returns.
func TestDaemonsWithoutSnapshotDirServeFromPrivateStores(t *testing.T) {
	dir := dataset(t)
	// Run makes a private store with os.MkdirTemp; point that at a
	// directory the test can list.
	tmp := filepath.Join(t.TempDir(), "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)

	ctxP, cancelP := context.WithCancel(context.Background())
	pubBase, _, errcP := startDaemonCtx(t, ctxP, dir, Config{})
	if gen := snapshotCurrentGen(t, pubBase); gen != "1" {
		t.Errorf("publisher /snapshot/current generation %q, want 1", gen)
	}
	ctxR, cancelR := context.WithCancel(context.Background())
	repBase, _, errcR := startDaemonCtx(t, ctxR,
		filepath.Join(t.TempDir(), "no-dataset-here"), Config{
			SnapshotURL: pubBase + "/snapshot/current",
			Poll:        50 * time.Millisecond,
		})

	for _, m := range []struct{ name, base, reload string }{
		{"publisher", pubBase, serve.ModeFull},
		{"replica", repBase, serve.ModeSnapshot},
	} {
		if load, reload := statuszModes(t, m.base); load != serve.LoadModeMmap || reload != m.reload {
			t.Errorf("%s: load_mode %q, last reload mode %q; want %q, %q", m.name, load, reload, serve.LoadModeMmap, m.reload)
		}
	}
	for _, p := range []string{"/table1", "/lookup?ip=203.0.113.99", "/snapshot/current"} {
		_, want := getBody(t, pubBase+p)
		if _, got := getBody(t, repBase+p); got != want {
			t.Errorf("replica %s diverged from the publisher", p)
		}
	}
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("%d private stores while both daemons run, want 2", len(ents))
	}

	stopDaemon(t, cancelR, errcR)
	stopDaemon(t, cancelP, errcP)
	if ents, err = os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("private stores left after Run returned: %v (%v)", ents, err)
	}
}

// TestReplicaRecoversWhenPublisherReturnsSameGeneration: a publisher
// that comes back serving the generation the replica already has (it
// cold-started from its own store, minting nothing new) must still
// clear the replica's breaker — recovery cannot wait for a generation
// that may never come.
func TestReplicaRecoversWhenPublisherReturnsSameGeneration(t *testing.T) {
	dir := dataset(t)
	snaps := filepath.Join(t.TempDir(), "snaps")

	ctxP, cancelP := context.WithCancel(context.Background())
	pubBase, _, errcP := startDaemonCtx(t, ctxP, dir, Config{SnapshotDir: snaps})
	pubAddr := strings.TrimPrefix(pubBase, "http://")

	ctxR, cancelR := context.WithCancel(context.Background())
	repBase, logsR, errcR := startDaemonCtx(t, ctxR,
		filepath.Join(t.TempDir(), "none"), Config{
			SnapshotURL: pubBase + "/snapshot/current",
			Poll:        50 * time.Millisecond,
		})
	defer stopDaemon(t, cancelR, errcR)
	_, wantTable1 := getBody(t, repBase+"/table1")

	// Outage: poll failures trip the replica's breaker.
	stopDaemon(t, cancelP, errcP)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, body := getBody(t, repBase+"/readyz"); code == http.StatusServiceUnavailable &&
			strings.Contains(body, `"reload_breaker_open": true`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica breaker never opened; logs:\n%s", logsR.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The publisher returns on the same address, cold-starting from its
	// store: same generation, nothing new to fetch.
	ctxP2, cancelP2 := context.WithCancel(context.Background())
	_, _, errcP2 := startDaemonCtx(t, ctxP2, dir, Config{SnapshotDir: snaps, Addr: pubAddr})
	defer stopDaemon(t, cancelP2, errcP2)

	deadline = time.Now().Add(30 * time.Second)
	for {
		if code, _ := getBody(t, repBase+"/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			_, body := getBody(t, repBase+"/readyz")
			t.Fatalf("replica never recovered after publisher returned at the same generation; readyz: %s\nlogs:\n%s",
				body, logsR.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if code, got := getBody(t, repBase+"/table1"); code != 200 || got != wantTable1 {
		t.Errorf("recovered replica serves different bytes: code %d", code)
	}
}

// TestReplicaColdCacheServesWithPublisherDown: a replica that also has
// -snapshot-dir can start with its publisher unreachable, serving the
// cached generation, and reports the fetch failure.
func TestReplicaColdCacheServesWithPublisherDown(t *testing.T) {
	dir := dataset(t)
	cache := filepath.Join(t.TempDir(), "cache")

	// Seed the cache: a replica run against a live publisher.
	ctxP, cancelP := context.WithCancel(context.Background())
	pubBase, _, errcP := startDaemonCtx(t, ctxP, dir, Config{
		SnapshotDir: filepath.Join(t.TempDir(), "snaps"),
	})
	_, wantTable1 := getBody(t, pubBase+"/table1")
	ctxR, cancelR := context.WithCancel(context.Background())
	_, _, errcR := startDaemonCtx(t, ctxR,
		filepath.Join(t.TempDir(), "none"), Config{
			SnapshotURL: pubBase + "/snapshot/current",
			SnapshotDir: cache,
			Poll:        time.Hour,
		})
	stopDaemon(t, cancelR, errcR)
	stopDaemon(t, cancelP, errcP)

	// Publisher down, cache warm: the replica must still come up.
	ctx2, cancel2 := context.WithCancel(context.Background())
	repBase, logs2, errc2 := startDaemonCtx(t, ctx2,
		filepath.Join(t.TempDir(), "none"), Config{
			SnapshotURL: pubBase + "/snapshot/current", // dead address
			SnapshotDir: cache,
			Poll:        time.Hour,
		})
	defer stopDaemon(t, cancel2, errc2)
	if _, got := getBody(t, repBase+"/table1"); got != wantTable1 {
		t.Error("cache-started replica serves different bytes than the publisher did")
	}
	if !strings.Contains(logs2.String(), "serving cached snapshot") {
		t.Errorf("cache fallback not logged:\n%s", logs2.String())
	}
}

// TestPublisherPersistFailureFailsReload: a publisher that cannot
// persist a generation must not serve it. The reload fails — and
// counts as failed — while the last published generation keeps
// answering and stays the one /snapshot/current offers, so no
// generation number is ever served without its file on disk.
func TestPublisherPersistFailureFailsReload(t *testing.T) {
	dir := dataset(t)
	snaps := filepath.Join(t.TempDir(), "snaps")
	ctx, cancel := context.WithCancel(context.Background())
	base, logs, errc := startDaemonCtx(t, ctx, dir, Config{SnapshotDir: snaps})
	defer stopDaemon(t, cancel, errc)

	if gen := snapshotCurrentGen(t, base); gen != "1" {
		t.Fatalf("published generation = %q, want 1", gen)
	}
	_, published := getBody(t, base+"/snapshot/current")
	failures := func() string {
		_, metrics := getBody(t, base+"/metrics")
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, "reload_failures_total "); ok {
				return v
			}
		}
		t.Fatalf("/metrics lacks reload_failures_total:\n%s", metrics)
		return ""
	}
	if n := failures(); n != "0" {
		t.Fatalf("reload_failures_total = %s before the fault", n)
	}

	// The store directory becomes a regular file: no temp file can be
	// created in it, whatever the process's privileges.
	if err := os.RemoveAll(snaps); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	cycles := reloadCycles(t, base)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for reloadCycles(t, base) == cycles {
		if time.Now().After(deadline) {
			t.Fatalf("forced reload never finished; logs:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	_, statusz := getBody(t, base+"/statusz")
	var st struct {
		Reload struct {
			History []serve.ReloadEvent `json:"history"`
		} `json:"reload"`
	}
	if err := json.Unmarshal([]byte(statusz), &st); err != nil {
		t.Fatal(err)
	}
	if h := st.Reload.History; len(h) == 0 || h[len(h)-1].OK {
		t.Fatalf("reload with an unwritable store succeeded: %s", statusz)
	}
	if n := failures(); n != "1" {
		t.Errorf("reload_failures_total = %s after the failed reload, want 1", n)
	}
	resp, err := http.Get(base + "/lookup?ip=203.0.113.99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gen := resp.Header.Get(serve.GenerationHeader); gen != "1" {
		t.Errorf("publisher answers with generation %q after the failed reload, want 1", gen)
	}
	if gen := snapshotCurrentGen(t, base); gen != "1" {
		t.Errorf("/snapshot/current offers generation %q after the failed reload, want 1", gen)
	}
	if _, got := getBody(t, base+"/snapshot/current"); got != published {
		t.Error("/snapshot/current bytes changed across the failed reload")
	}
}
