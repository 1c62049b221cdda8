package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"ipleasing"
	"ipleasing/internal/netutil"
	"ipleasing/internal/report"
	"ipleasing/internal/serve"
)

// Input shape. Changing any of these changes what a seed generates, so
// inputsVersion must move with them (it names the cache directory).
const (
	inputsVersion  = 1
	bigScale       = 0.1  // the lookup workloads' world, 5x the default
	chainScale     = 0.02 // the reload chain's world, the default scale
	chainEpochs    = 6    // epochs in the churn chain, the base included
	chainChurn     = 0.01 // share of each entity class one epoch mutates
	bigProbeCount  = 20000
	chainProbeSize = 2000
	batchSize      = 1000 // addresses per /lookup/batch body
	uncoveredShare = 0.10 // probes in space no planted leaf covers
	keepSeeds      = 3    // seeds whose inputs stay cached
)

// probe is one lookup address with its expected answer.
type probe struct {
	IP       string `json:"ip"`
	Found    bool   `json:"found"`
	Prefix   string `json:"prefix,omitempty"`
	Category string `json:"category,omitempty"`
}

// epoch is one dataset of the churn chain with its references: the
// Table 1 bytes and the full answer for every chain probe address, both
// from a full Dataset.Infer of that epoch.
type epoch struct {
	Dir    string                 `json:"dir"`
	Table1 []byte                 `json:"table1"`
	Want   []*serve.InferenceView `json:"want"`
}

// inputs is everything one seed generates. Dataset directories are
// relative to the seed's cache directory until load resolves them.
type inputs struct {
	Seed      int64    `json:"seed"`
	Big       string   `json:"big"`
	BigProbes []probe  `json:"big_probes"`
	ChainIPs  []string `json:"chain_ips"`
	Epochs    []epoch  `json:"epochs"`
}

// loadInputs returns the seed's inputs, generating them on first use.
// Generation writes into a temporary directory renamed into place, so
// an interrupted run never leaves a half-written seed behind.
func loadInputs(cacheRoot string, seed int64) (*inputs, error) {
	dir := filepath.Join(cacheRoot, fmt.Sprintf("v%d-seed-%d", inputsVersion, seed))
	in, err := readInputs(dir)
	if err == nil {
		return in, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	if err := os.MkdirAll(cacheRoot, 0o755); err != nil {
		return nil, err
	}
	if err := evictSeeds(cacheRoot, keepSeeds-1); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cacheRoot, ".gen-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	gen, err := generateInputs(tmp, seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs for seed %d: %w", seed, err)
	}
	b, err := json.Marshal(gen)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "inputs.json"), b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	return readInputs(dir)
}

func readInputs(dir string) (*inputs, error) {
	b, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err != nil {
		return nil, err
	}
	var in inputs
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	in.Big = filepath.Join(dir, in.Big)
	for i := range in.Epochs {
		in.Epochs[i].Dir = filepath.Join(dir, in.Epochs[i].Dir)
	}
	return &in, nil
}

// evictSeeds keeps the keep most recently generated seeds under root.
func evictSeeds(root string, keep int) error {
	ents, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	type seedDir struct {
		path string
		mod  int64
	}
	var dirs []seedDir
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		dirs = append(dirs, seedDir{filepath.Join(root, e.Name()), info.ModTime().UnixNano()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod > dirs[j].mod })
	for i := keep; i < len(dirs); i++ {
		if err := os.RemoveAll(dirs[i].path); err != nil {
			return err
		}
	}
	return nil
}

func generateInputs(dir string, seed int64) (*inputs, error) {
	in := &inputs{Seed: seed, Big: "big"}
	rng := rand.New(rand.NewSource(seed))

	var err error
	if in.BigProbes, err = writeBig(filepath.Join(dir, in.Big), seed, rng); err != nil {
		return nil, err
	}

	w := ipleasing.Generate(ipleasing.Config{Seed: seed, Scale: chainScale})
	addrs := sampleAddrs(rng, w.Truth, newTruthIndex(w.Truth), chainProbeSize)
	for _, a := range addrs {
		in.ChainIPs = append(in.ChainIPs, a.String())
	}
	for k := 0; k < chainEpochs; k++ {
		if k > 0 {
			ipleasing.Mutate(w, ipleasing.MutateConfig{Seed: seed*1000 + int64(k), Churn: chainChurn})
		}
		ep := epoch{Dir: filepath.Join("chain", fmt.Sprintf("e%d", k))}
		path := filepath.Join(dir, ep.Dir)
		if err := w.WriteDir(path); err != nil {
			return nil, err
		}
		ds, _, err := ipleasing.LoadDatasetReport(path, ipleasing.LenientLoad())
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", k, err)
		}
		res := ds.Infer(ipleasing.Options{})
		var t1 bytes.Buffer
		report.Table1(&t1, res)
		ep.Table1 = t1.Bytes()
		if k > 0 && bytes.Equal(ep.Table1, in.Epochs[k-1].Table1) {
			// Freshness is observed as the replica's Table 1 turning into
			// the next epoch's; identical tables would make it unobservable.
			return nil, fmt.Errorf("epochs %d and %d render the same Table 1", k-1, k)
		}
		ep.Want = wantViews(res.All(), addrs)
		in.Epochs = append(in.Epochs, ep)
	}
	return in, nil
}

// writeBig writes the lookup workloads' world and draws its probes,
// each expected to answer with the planted leaf and category.
func writeBig(path string, seed int64, rng *rand.Rand) ([]probe, error) {
	w := ipleasing.Generate(ipleasing.Config{Seed: seed, Scale: bigScale})
	if err := w.WriteDir(path); err != nil {
		return nil, err
	}
	truth := newTruthIndex(w.Truth)
	var out []probe
	for _, a := range sampleAddrs(rng, w.Truth, truth, bigProbeCount) {
		p := probe{IP: a.String()}
		if rec, ok := truth.cover(a); ok {
			p.Found, p.Prefix, p.Category = true, rec.Prefix.String(), rec.Intended.String()
		}
		out = append(out, p)
	}
	return out, nil
}

// truthIndex answers "which planted leaf covers this address" by brute
// force over prefix lengths: an oracle that shares no code with the
// serving LPM.
type truthIndex map[netutil.Prefix]*ipleasing.TruthRecord

// newTruthIndex indexes the planted leaves the inference classifies.
// Legacy blocks are planted but deliberately left unclassified.
func newTruthIndex(recs []ipleasing.TruthRecord) truthIndex {
	t := make(truthIndex, len(recs))
	for i := range recs {
		if !recs[i].Legacy {
			t[recs[i].Prefix] = &recs[i]
		}
	}
	return t
}

func (t truthIndex) cover(a netutil.Addr) (*ipleasing.TruthRecord, bool) {
	for l := 32; l >= 0; l-- {
		p := netutil.Prefix{Base: a & netutil.Prefix{Len: uint8(l)}.Mask(), Len: uint8(l)}
		if rec, ok := t[p]; ok {
			return rec, true
		}
	}
	return nil, false
}

// sampleAddrs draws n probe addresses: uncoveredShare of them uniform
// over space no planted leaf covers, the rest uniform inside a planted
// leaf chosen uniformly.
func sampleAddrs(rng *rand.Rand, recs []ipleasing.TruthRecord, truth truthIndex, n int) []netutil.Addr {
	var leaves []netutil.Prefix
	for _, r := range recs {
		if !r.Legacy {
			leaves = append(leaves, r.Prefix)
		}
	}
	out := make([]netutil.Addr, 0, n)
	for len(out) < n {
		if rng.Float64() < uncoveredShare {
			a := netutil.Addr(rng.Uint32())
			if _, ok := truth.cover(a); !ok {
				out = append(out, a)
			}
			continue
		}
		p := leaves[rng.Intn(len(leaves))]
		out = append(out, p.Base+netutil.Addr(rng.Int63n(int64(p.NumAddrs()))))
	}
	return out
}

// wantViews resolves each address against a full inference result by
// brute force over prefix lengths. Where several leaves share a prefix
// the last in result order wins, as in the serving index.
func wantViews(all []ipleasing.Inference, addrs []netutil.Addr) []*serve.InferenceView {
	byPrefix := make(map[netutil.Prefix]*ipleasing.Inference, len(all))
	for i := range all {
		byPrefix[all[i].Prefix] = &all[i]
	}
	out := make([]*serve.InferenceView, len(addrs))
	for i, a := range addrs {
		for l := 32; l >= 0; l-- {
			p := netutil.Prefix{Base: a & netutil.Prefix{Len: uint8(l)}.Mask(), Len: uint8(l)}
			if inf, ok := byPrefix[p]; ok {
				out[i] = serve.View(inf)
				break
			}
		}
	}
	return out
}

// batchBodies encodes ips as /lookup/batch request bodies of batchSize
// addresses each.
func batchBodies(ips []string) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(ips); lo += batchSize {
		hi := min(lo+batchSize, len(ips))
		b, _ := json.Marshal(map[string][]string{"ips": ips[lo:hi]}) // []string always encodes
		out = append(out, b)
	}
	return out
}

// lookupURLs builds the single-lookup URL for every address.
func lookupURLs(base string, ips []string) []string {
	out := make([]string, len(ips))
	for i, ip := range ips {
		out[i] = base + "/lookup?ip=" + ip
	}
	return out
}

// probeIPs lists the probe addresses in order.
func probeIPs(ps []probe) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.IP
	}
	return out
}

// foundMarker is how an indented /lookup body states its verdict; the
// timed loop checks every response for the expected one.
func foundMarker(found bool) []byte {
	return []byte(fmt.Sprintf(`"found": %t`, found))
}

// parseAddrs parses dotted-quad addresses.
func parseAddrs(ips []string) ([]netutil.Addr, error) {
	out := make([]netutil.Addr, len(ips))
	for i, ip := range ips {
		a, err := netutil.ParseAddr(ip)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}
