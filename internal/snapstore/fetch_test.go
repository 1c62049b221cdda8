package snapstore

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func TestPublisherServesCurrentSnapshot(t *testing.T) {
	snap := testSnapshot(t)
	pub := NewPublisher()
	srv := httptest.NewServer(pub)
	defer srv.Close()

	// Nothing published yet: 503.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unpublished GET status = %d, want 503", resp.StatusCode)
	}
	if _, ok := pub.Generation(); ok {
		t.Fatal("Generation reported before any Publish")
	}

	const prov = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	snap.Provenance = prov
	data := Encode(snap, 12)
	if err := pub.Publish(decoded(t, data)); err != nil {
		t.Fatal(err)
	}
	if gen, ok := pub.Generation(); !ok || gen != 12 {
		t.Fatalf("Generation = %d, %v; want 12, true", gen, ok)
	}
	resp, err = http.Head(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(provenanceHeader); got != prov {
		t.Errorf("provenance header %q, want the published generation's %q", got, prov)
	}

	f := NewFetcher(srv.URL, FetcherOptions{})
	ctx := context.Background()

	if gen, err := f.Probe(ctx); err != nil || gen != 12 {
		t.Fatalf("Probe = %d, %v; want 12, nil", gen, err)
	}
	dir := t.TempDir()
	path, gen, err := f.FetchToFile(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if body := readFile(t, path); gen != 12 || string(body) != string(data) {
		t.Fatalf("fetched gen %d, %d bytes; want 12, %d bytes identical", gen, len(body), len(data))
	}

	// Steady state: conditional fetch answers unchanged.
	if _, _, err := f.FetchToFile(ctx, dir); !errors.Is(err, ErrUnchanged) {
		t.Fatalf("second fetch: %v, want ErrUnchanged", err)
	}

	// New generation flows through.
	if err := pub.Publish(decoded(t, Encode(snap, 13))); err != nil {
		t.Fatal(err)
	}
	if _, gen, err := f.FetchToFile(ctx, dir); err != nil || gen != 13 {
		t.Fatalf("fetch after publish = %d, %v; want 13, nil", gen, err)
	}

	// Invalidate forces a full transfer of an unchanged generation.
	f.Invalidate()
	path, gen, err = f.FetchToFile(ctx, dir)
	if err != nil || gen != 13 {
		t.Fatalf("forced fetch = gen %d, %v; want 13, nil", gen, err)
	}
	if body := readFile(t, path); len(body) == 0 {
		t.Fatal("forced fetch wrote an empty body")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertEmptyDir fails unless dir holds nothing: a refused fetch must
// not leave its temp file behind.
func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("%s holds %d entries after a refused fetch (%v)", dir, len(ents), err)
	}
}

// decoded opens an encoded generation on the heap, as OpenFile does
// where the platform cannot map it.
func decoded(t *testing.T, data []byte) *Loaded {
	t.Helper()
	snap, gen, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return &Loaded{Snap: snap, Gen: gen, Data: data}
}

func TestFetcherRejectsCorruptBody(t *testing.T) {
	snap := testSnapshot(t)
	data := Encode(snap, 5)
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)/3] ^= 0x08
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(damaged)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL, FetcherOptions{})
	dir := t.TempDir()
	if _, _, err := f.FetchToFile(context.Background(), dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt body fetch: %v, want ErrCorrupt", err)
	}
	assertEmptyDir(t, dir)
}

func TestFetcherBoundsBodySize(t *testing.T) {
	snap := testSnapshot(t)
	data := Encode(snap, 5)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(data)
	}))
	defer srv.Close()

	f := NewFetcher(srv.URL, FetcherOptions{MaxBytes: 128})
	dir := t.TempDir()
	if _, _, err := f.FetchToFile(context.Background(), dir); err == nil {
		t.Fatal("oversized body accepted")
	}
	assertEmptyDir(t, dir)
}

func TestFetcherReportsUnreachablePublisher(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // connection refused from here on

	f := NewFetcher(url, FetcherOptions{})
	if _, _, err := f.FetchToFile(context.Background(), t.TempDir()); err == nil {
		t.Fatal("fetch from dead publisher succeeded")
	}
	if _, err := f.Probe(context.Background()); err == nil {
		t.Fatal("probe of dead publisher succeeded")
	}
}

func TestFetcherNotPublished(t *testing.T) {
	pub := NewPublisher()
	srv := httptest.NewServer(pub)
	defer srv.Close()
	f := NewFetcher(srv.URL, FetcherOptions{})
	if _, _, err := f.FetchToFile(context.Background(), t.TempDir()); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("fetch before publish: %v, want ErrNotPublished", err)
	}
	if _, err := f.Probe(context.Background()); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("probe before publish: %v, want ErrNotPublished", err)
	}
}

func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
		ok   bool
	}{
		{"empty", "", 0, false},
		{"seconds", "7", 7 * time.Second, true},
		{"zero seconds", "0", 0, false},
		{"negative seconds", "-3", 0, false},
		{"garbage", "soon", 0, false},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0, false},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.v, now)
		if ok != tc.ok || got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = (%v, %v), want (%v, %v)",
				tc.name, tc.v, got, ok, tc.want, tc.ok)
		}
	}
}

// retryAfterServer answers every request with the given status and
// Retry-After header value.
func retryAfterServer(status int, header string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if header != "" {
			w.Header().Set("Retry-After", header)
		}
		w.WriteHeader(status)
	}))
}

func TestFetcherHonorsRetryAfterSeconds(t *testing.T) {
	srv := retryAfterServer(http.StatusServiceUnavailable, "7")
	defer srv.Close()
	f := NewFetcher(srv.URL, FetcherOptions{RetryAfterCap: time.Minute})

	_, _, err := f.FetchToFile(context.Background(), t.TempDir())
	if !errors.Is(err, ErrNotPublished) {
		t.Fatalf("fetch: %v, want ErrNotPublished underneath", err)
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("fetch error %v does not carry RetryAfterError", err)
	}
	if ra.After != 7*time.Second {
		t.Fatalf("After = %v, want 7s", ra.After)
	}
	if _, err := f.Probe(context.Background()); !errors.As(err, &ra) || ra.After != 7*time.Second {
		t.Fatalf("probe error %v: want RetryAfterError with 7s", err)
	}
}

func TestFetcherHonorsRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	srv := retryAfterServer(http.StatusTooManyRequests, now.Add(9*time.Second).Format(http.TimeFormat))
	defer srv.Close()
	f := NewFetcher(srv.URL, FetcherOptions{RetryAfterCap: time.Minute})
	f.now = func() time.Time { return now }

	var ra *RetryAfterError
	if _, _, err := f.FetchToFile(context.Background(), t.TempDir()); !errors.As(err, &ra) {
		t.Fatalf("fetch error %v does not carry RetryAfterError", err)
	} else if ra.After != 9*time.Second {
		t.Fatalf("After = %v, want 9s", ra.After)
	}
}

func TestFetcherCapsRetryAfter(t *testing.T) {
	srv := retryAfterServer(http.StatusServiceUnavailable, "3600")
	defer srv.Close()
	f := NewFetcher(srv.URL, FetcherOptions{RetryAfterCap: 15 * time.Second})

	var ra *RetryAfterError
	if _, _, err := f.FetchToFile(context.Background(), t.TempDir()); !errors.As(err, &ra) {
		t.Fatalf("fetch error does not carry RetryAfterError")
	} else if ra.After != 15*time.Second {
		t.Fatalf("After = %v, want capped 15s", ra.After)
	}
}

func TestFetcherNoRetryAfterHeaderNoWrap(t *testing.T) {
	srv := retryAfterServer(http.StatusServiceUnavailable, "")
	defer srv.Close()
	f := NewFetcher(srv.URL, FetcherOptions{})

	var ra *RetryAfterError
	if _, _, err := f.FetchToFile(context.Background(), t.TempDir()); errors.As(err, &ra) {
		t.Fatalf("bare 503 wrapped in RetryAfterError: %v", err)
	} else if !errors.Is(err, ErrNotPublished) {
		t.Fatalf("fetch: %v, want ErrNotPublished", err)
	}
}
