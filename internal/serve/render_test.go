package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"ipleasing/internal/core"
	"ipleasing/internal/netutil"
	"ipleasing/internal/synth"
	"ipleasing/internal/whois"
)

// The oracle: the response structs the lookup endpoints were encoded
// from before the append renderer, and the encoder settings writeJSON
// used. The renderer must reproduce these bytes exactly.

type lookupResponse struct {
	Query           string           `json:"query"`
	SnapshotBuiltAt time.Time        `json:"snapshot_built_at"`
	Found           bool             `json:"found"`
	Inference       *InferenceView   `json:"inference,omitempty"`
	Inferences      []*InferenceView `json:"inferences,omitempty"`
}

type batchLookupItem struct {
	IP        string         `json:"ip"`
	Found     bool           `json:"found"`
	Inference *InferenceView `json:"inference,omitempty"`
	Error     string         `json:"error,omitempty"`
}

type batchLookupResponse struct {
	SnapshotBuiltAt time.Time         `json:"snapshot_built_at"`
	Results         []batchLookupItem `json:"results"`
}

// encodeOracle is writeJSON's body: an indented encoder with a trailing
// newline, empty when the value cannot be encoded.
func encodeOracle(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

func oracleLookup(query string, builtAt time.Time, inf *core.Inference, infs []*core.Inference) []byte {
	resp := lookupResponse{Query: query, SnapshotBuiltAt: builtAt}
	if inf != nil {
		resp.Found, resp.Inference = true, View(inf)
	}
	for _, x := range infs {
		resp.Inferences = append(resp.Inferences, View(x))
	}
	resp.Found = resp.Found || len(resp.Inferences) > 0
	return encodeOracle(resp)
}

func oracleBatch(snap *Snapshot, ips []string) []byte {
	resp := batchLookupResponse{SnapshotBuiltAt: snap.BuiltAt, Results: make([]batchLookupItem, len(ips))}
	for i, raw := range ips {
		item := &resp.Results[i]
		item.IP = raw
		a, err := netutil.ParseAddr(raw)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		if inf := snap.LookupAddr(a); inf != nil {
			item.Found, item.Inference = true, View(inf)
		}
	}
	return encodeOracle(resp)
}

// diffBodies reports the first differing line of two bodies.
func diffBodies(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "bodies differ"
}

// recorded serves one request through the full routed handler.
func recorded(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// differential serves requests through the handler and compares every
// body with the encoder oracle.
type differential struct {
	t    *testing.T
	h    http.Handler
	snap *Snapshot
	n    int
}

func (d *differential) lookup(target string, want []byte) {
	d.t.Helper()
	rec := recorded(d.h, http.MethodGet, target, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		d.t.Fatalf("%s: code %d content-type %q", target, rec.Code, rec.Header().Get("Content-Type"))
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		d.t.Fatalf("%s: body differs from encoding/json: %s", target, diffBodies(rec.Body.Bytes(), want))
	}
	d.n++
}

func (d *differential) batch(ips []string) {
	d.t.Helper()
	body, err := json.Marshal(map[string][]string{"ips": ips})
	if err != nil {
		d.t.Fatal(err)
	}
	// The oracle sees the addresses as the handler's decoder does
	// (invalid UTF-8 arrives as U+FFFD).
	var req batchLookupRequest
	if err := json.Unmarshal(body, &req); err != nil {
		d.t.Fatal(err)
	}
	rec := recorded(d.h, http.MethodPost, "/lookup/batch", body)
	if rec.Code != http.StatusOK {
		d.t.Fatalf("batch of %d: code %d body %s", len(ips), rec.Code, rec.Body)
	}
	if want := oracleBatch(d.snap, req.IPs); !bytes.Equal(rec.Body.Bytes(), want) {
		d.t.Fatalf("batch of %d: body differs from encoding/json: %s", len(ips), diffBodies(rec.Body.Bytes(), want))
	}
	d.n++
}

// serveSnapshot primes a server on snap with a fixed build time.
func serveSnapshot(t *testing.T, snap *Snapshot, builtAt time.Time) *Server {
	t.Helper()
	snap.BuiltAt = builtAt
	s := New(Config{Build: func(context.Context) (*Snapshot, error) { return snap, nil }})
	if err := s.Reload(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRenderMatchesEncoderOnSynthWorld is the byte-identity proof over a
// seeded synthetic world: every leaf queried by prefix, by an address
// inside it and by each of its ASNs, random addresses anywhere, and
// batches mixing all leaves with malformed entries.
func TestRenderMatchesEncoderOnSynthWorld(t *testing.T) {
	res := synth.Generate(synth.Config{Seed: 3}).Pipeline().Infer()
	snap := NewSnapshot(res, nil, nil)
	built := time.Date(2024, 5, 17, 10, 11, 12, 123456700, time.FixedZone("CEST", 2*3600))
	s := serveSnapshot(t, snap, built)
	d := &differential{t: t, h: s.Handler(), snap: snap}
	rng := rand.New(rand.NewSource(3))

	asns := map[uint32]bool{}
	var batch []string
	for i := range snap.infs {
		inf := &snap.infs[i]
		d.lookup("/lookup?prefix="+inf.Prefix.String(),
			oracleLookup("prefix="+inf.Prefix.String(), built, snap.LookupPrefix(inf.Prefix), nil))
		a := inf.Prefix.Base | netutil.Addr(rng.Uint32()&^uint32(inf.Prefix.Mask()))
		d.lookup("/lookup?ip="+a.String(), oracleLookup("ip="+a.String(), built, snap.LookupAddr(a), nil))
		for _, list := range [][]uint32{inf.LeafOrigins, inf.RootASNs, inf.RootOrigins} {
			for _, asn := range list {
				asns[asn] = true
			}
		}
		batch = append(batch, a.String())
		if i%97 == 0 {
			batch = append(batch, "banana", "10.0.0.256", "", "<b>&amp;</b>", "1.2.3.4\u2028", "\xff\xfe")
		}
	}
	for asn := range asns {
		q := fmt.Sprintf("asn=AS%d", asn)
		d.lookup("/lookup?"+q, oracleLookup(q, built, nil, snap.LookupASN(asn)))
	}
	for i := 0; i < 20000; i++ {
		a := netutil.Addr(rng.Uint32())
		d.lookup("/lookup?ip="+a.String(), oracleLookup("ip="+a.String(), built, snap.LookupAddr(a), nil))
	}
	for lo := 0; lo < len(batch); lo += MaxBatchIPs {
		d.batch(batch[lo:min(lo+MaxBatchIPs, len(batch))])
	}
	if len(snap.infs) < 1000 || len(asns) < 100 {
		t.Fatalf("world too small to mean anything: %d leaves, %d ASNs", len(snap.infs), len(asns))
	}
	t.Logf("%d leaves, %d ASNs, %d byte-identical responses", len(snap.infs), len(asns), d.n)
}

// TestRenderMatchesEncoderOnEdgeInferences covers what a synthetic
// world never produces: every escaping class, empty versus nil slices,
// an Orphan without a root, out-of-range enum values, and timestamps
// at and beyond the edges of what JSON can carry.
func TestRenderMatchesEncoderOnEdgeInferences(t *testing.T) {
	weird := []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"ctl \x00\x01\x08\x09\x0a\x0b\x0c\x0d\x1f\x7f end",
		"bad utf8 \xff \xc3 \xe2\x82 \xed\xa0\x80 end", "seps \u2028 \u2029 \u2027 \u202a",
		"emoji \U0001f310 and \u00fc", "trailing invalid \xe2",
	}
	var infs []core.Inference
	for i, s := range weird {
		infs = append(infs, core.Inference{
			Registry:     whois.Registry(i % 6),
			Prefix:       netutil.Prefix{Base: netutil.Addr(0x0a000000 + i<<8), Len: 24},
			Category:     core.Category(i % (int(core.Orphan) + 1)),
			Root:         mp("10.0.0.0/8"),
			HolderOrg:    s,
			RootASNs:     []uint32{},
			RootOrigins:  []uint32{0, 4294967295},
			LeafOrigins:  []uint32{uint32(64500 + i)},
			Facilitators: []string{s, "MNT-" + s},
			NetName:      s,
			Country:      s,
		})
	}
	infs = append(infs,
		core.Inference{Registry: whois.Registry(42), Prefix: mp("11.0.0.0/24"), Category: core.Unused},
		core.Inference{Registry: whois.ARIN, Prefix: mp("12.0.0.0/24"), Category: core.Orphan,
			Root: mp("12.0.0.0/8"), Facilitators: []string{}, LeafOrigins: []uint32{7}},
		core.Inference{Registry: whois.ARIN, Prefix: mp("0.0.0.0/0"), Category: core.Unused},
	)
	snap := snapshotOf(infs)
	s := serveSnapshot(t, snap, time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	d := &differential{t: t, h: s.Handler(), snap: snap}
	var ips []string
	for i := range snap.infs {
		p := snap.infs[i].Prefix
		d.lookup("/lookup?prefix="+p.String(), oracleLookup("prefix="+p.String(), snap.BuiltAt, &snap.infs[i], nil))
		a := p.Base | 7
		d.lookup("/lookup?ip="+a.String(), oracleLookup("ip="+a.String(), snap.BuiltAt, snap.LookupAddr(a), nil))
		for _, asn := range snap.infs[i].LeafOrigins {
			q := fmt.Sprintf("asn=%d", asn)
			d.lookup("/lookup?"+q, oracleLookup(q, snap.BuiltAt, nil, snap.LookupASN(asn)))
		}
		ips = append(ips, a.String())
	}
	d.lookup("/lookup?asn=AS1", oracleLookup("asn=AS1", snap.BuiltAt, nil, nil))
	d.batch(append(ips, weird...))
	d.batch([]string{"banana"})

	// The query echo and the timestamp, rendered directly: the handler
	// only ever echoes parsed addresses, but the renderer must escape
	// anything, and must refuse the instants MarshalJSON refuses.
	inf := &snap.infs[0]
	odd := &core.Inference{Registry: whois.Registry(-1), Prefix: mp("13.0.0.0/24"), Category: core.Category(99)}
	times := []time.Time{
		{}, time.Unix(0, 1).UTC(), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2024, 2, 29, 12, 0, 0, 500, time.FixedZone("", -(9*3600+30*60))),
		time.Date(2024, 2, 29, 12, 0, 0, 0, time.FixedZone("", 23*3600+59*60)),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 2, 29, 12, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2024, 2, 29, 12, 0, 0, 0, time.FixedZone("", -100*3600)),
	}
	for _, at := range times {
		for _, arg := range weird {
			rec := httptest.NewRecorder()
			renderLookup(rec, "ip", arg, at, inf, nil)
			if want := oracleLookup("ip="+arg, at, inf, nil); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("renderLookup(%q, %v): %s", arg, at, diffBodies(rec.Body.Bytes(), want))
			}
			rec = httptest.NewRecorder()
			renderLookup(rec, "asn", arg, at, nil, []*core.Inference{odd, inf})
			if want := oracleLookup("asn="+arg, at, nil, []*core.Inference{odd, inf}); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("renderLookup(asn %q, %v): %s", arg, at, diffBodies(rec.Body.Bytes(), want))
			}
			rec = httptest.NewRecorder()
			renderBatch(rec, at, []string{arg}, []*core.Inference{nil}, []error{nil})
			want := encodeOracle(batchLookupResponse{SnapshotBuiltAt: at, Results: []batchLookupItem{{IP: arg}}})
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("renderBatch(%q, %v): %s", arg, at, diffBodies(rec.Body.Bytes(), want))
			}
		}
	}
	rec := httptest.NewRecorder()
	renderBatch(rec, snap.BuiltAt, []string{}, nil, nil)
	if want := encodeOracle(batchLookupResponse{SnapshotBuiltAt: snap.BuiltAt, Results: []batchLookupItem{}}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("empty batch: %s", diffBodies(rec.Body.Bytes(), want))
	}
}

// FuzzAppendJSONString checks the string escaper against json.Marshal,
// which escapes HTML exactly as the indented encoder did.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `"\`, "<>&", "\x00\x1f\x7f\b\f\n\r\t",
		"\xff", "\xe2\x80\xa8\xe2\x80\xa9", "\xe2\x80", "\U0001f310\u00fc", "a\u2028b\u2029c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
	})
}

// FuzzQueryGet checks the map-free parameter scan against
// url.ParseQuery(raw).Get for the lookup parameters and an arbitrary
// key.
func FuzzQueryGet(f *testing.F) {
	for _, raw := range []string{"", "ip=1.2.3.4", "ip=&ip=1.2.3.4", "prefix=10.0.0.0%2F8&ip=x",
		"ip=1;x=2&ip=3", "a=1&&ip=%zz&ip=5", "ip%3D=7&i%70=8", "ip=a+b%20c", "asn=AS1&asn=AS2",
		"ip", "=ip&ip", "%=&ip=1", "ip=%"} {
		f.Add(raw, "ip")
	}
	f.Add("a+b=c&a b=d", "a b")
	f.Fuzz(func(t *testing.T, raw, key string) {
		vals, _ := url.ParseQuery(raw)
		for _, k := range []string{key, "ip", "prefix", "asn"} {
			if got, want := queryGet(raw, k), vals.Get(k); got != want {
				t.Fatalf("queryGet(%q, %q) = %q, url.Values.Get = %q", raw, k, got, want)
			}
		}
	})
}
