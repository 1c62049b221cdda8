package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ipleasing/internal/serve"
)

// chain walks the churn chain's epochs back and forth (0, 1, ..., n-1,
// n-2, ..., 0, 1, ...), so every flip is one Mutate step of churn, and
// flips the publisher's data symlink to the next epoch.
type chain struct {
	epochs []epoch
	link   string // the publisher's -data path
	cur    int
	step   int
	polls  int64 // /table1 replies read so far
}

// newChain points link at epoch 0.
func newChain(epochs []epoch, link string) (*chain, error) {
	ch := &chain{epochs: epochs, link: link, step: 1}
	return ch, ch.point(0)
}

// point atomically repoints the data symlink at epoch k.
func (ch *chain) point(k int) error {
	tmp := ch.link + ".next"
	os.Remove(tmp) // left over only by an interrupted flip
	if err := os.Symlink(ch.epochs[k].Dir, tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, ch.link); err != nil {
		return err
	}
	ch.cur = k
	return nil
}

// next returns the epoch the walk visits after the current one.
func (ch *chain) next() int {
	k := ch.cur + ch.step
	if k < 0 || k >= len(ch.epochs) {
		ch.step = -ch.step
		k = ch.cur + ch.step
	}
	return k
}

// flip repoints the data at epoch k and polls the replica's /table1
// until it serves that epoch's reference Table 1, returning the time
// from the flip to that answer.
func (ch *chain) flip(c *http.Client, repURL string, k int) (time.Duration, error) {
	if err := ch.point(k); err != nil {
		return 0, err
	}
	t0 := time.Now()
	want := ch.epochs[k].Table1
	var buf bytes.Buffer
	for {
		req, _ := http.NewRequest(http.MethodGet, repURL+"/table1", nil) // fixed, valid URL
		resp, _, err := exchange(c, req, &buf)
		if err != nil {
			return 0, err
		}
		ch.polls++
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET /table1: %s", resp.Status)
		}
		if bytes.Equal(buf.Bytes(), want) {
			return time.Since(t0), nil
		}
		if time.Since(t0) > flipTimeout {
			return 0, fmt.Errorf("replica still not serving epoch %d after %v", k, flipTimeout)
		}
		time.Sleep(pollPause)
	}
}

// startChurn boots the reload fleet on a data symlink at epoch 0,
// publisher reloading every churnReload and replica polling every
// churnPoll, and returns it with its chain.
func startChurn(e *env, name string) (*fleet, *chain, time.Duration, error) {
	var ch *chain
	f, setup, err := bootFleet(e, name, func(dir string) (string, error) {
		var err error
		ch, err = newChain(e.in.Epochs, filepath.Join(dir, "data"))
		return ch.link, err
	}, []string{"-reload", churnReload}, []string{"-poll", churnPoll})
	return f, ch, setup, err
}

// reloadChurn: epoch flips on the default-scale world while a paced
// reader on the second connection reads beside the reloads.
type reloadChurn struct {
	e      *env
	chain  *chain
	reader *reader
}

func (w *reloadChurn) start(e *env) (*fleet, time.Duration, error) {
	f, ch, setup, err := startChurn(e, "churn")
	if err != nil {
		return nil, 0, err
	}
	w.e, w.chain = e, ch
	probes := make([]probe, len(e.in.ChainIPs))
	for i, ip := range e.in.ChainIPs {
		probes[i] = probe{IP: ip}
	}
	w.reader = newReader(f.rep.url, probes, "", readerPause)
	return f, setup, nil
}

func (w *reloadChurn) phase(e *env, f *fleet, d time.Duration, traced bool) (*phaseResult, error) {
	ph := &phaseResult{}
	c := conn()
	defer c.CloseIdleConnections()
	err := measure(f, ph, func() error {
		stop := w.reader.run(e, traced)
		defer func() {
			var n int64
			ph.reads, n = stop()
			ph.requests += n
		}()
		polls := w.chain.polls
		defer func() { ph.requests += w.chain.polls - polls }()
		until := time.Now().Add(d)
		for time.Now().Before(until) {
			k := w.chain.next()
			fresh, err := w.chain.flip(c, f.rep.url, k)
			if err != nil {
				e.tally.fail("flip to epoch %d: %v", k, err)
				return err
			}
			e.tally.ok()
			ph.ops = append(ph.ops, ms(fresh))
		}
		return nil
	})
	return ph, err
}

// oracle visits every epoch and, once the replica serves it, compares
// the full answer for every chain probe address with a full
// Dataset.Infer of that epoch.
func (w *reloadChurn) oracle(e *env, f *fleet) error {
	return chainOracle(e, f, w.chain)
}

func chainOracle(e *env, f *fleet, ch *chain) error {
	c := conn()
	defer c.CloseIdleConnections()
	for k := range ch.epochs {
		if _, err := ch.flip(c, f.rep.url, k); err != nil {
			e.tally.fail("oracle flip to epoch %d: %v", k, err)
			return err
		}
		// The replica serves epoch k's Table 1. A reload that straddled
		// the flip can have read a mix of both epochs' files, and such a
		// snapshot could in principle share its Table 1; the next reload
		// replaces it, so a mismatch is re-checked before it counts.
		var bad []string
		for try := 0; try < oracleRetries; try++ {
			var err error
			if bad, err = compareEpoch(c, f.rep.url, e.in.ChainIPs, ch.epochs[k].Want); err != nil {
				return err
			}
			if len(bad) == 0 {
				break
			}
			time.Sleep(oracleBackoff)
		}
		for _, b := range bad {
			e.tally.fail("epoch %d: %s", k, b)
		}
		for i := len(bad); i < len(e.in.ChainIPs); i++ {
			e.tally.ok()
		}
	}
	return nil
}

// compareEpoch classifies ips on the replica and describes every answer
// that differs from want.
func compareEpoch(c *http.Client, base string, ips []string, want []*serve.InferenceView) ([]string, error) {
	var bad []string
	for lo := 0; lo < len(ips); lo += batchSize {
		hi := min(lo+batchSize, len(ips))
		items, err := postBatch(c, base, ips[lo:hi])
		if err != nil {
			return nil, err
		}
		for i, got := range items {
			w := want[lo+i]
			gb, _ := json.Marshal(got.Inference) // plain struct: always encodes
			wb, _ := json.Marshal(w)
			if got.Found != (w != nil) || !bytes.Equal(gb, wb) {
				bad = append(bad, fmt.Sprintf("%s answered %s, full inference says %s", ips[lo+i], gb, wb))
			}
		}
	}
	return bad, nil
}

func (w *reloadChurn) request(i int) *http.Request {
	ip := w.e.in.ChainIPs[i%len(w.e.in.ChainIPs)]
	req, _ := http.NewRequest(http.MethodGet, "/lookup?ip="+ip, nil) // relative URL of a parsed address
	return req
}

func (w *reloadChurn) endpoint() string { return "lookup" }

func (w *reloadChurn) requestLatencies(ph *phaseResult) []float64 { return ph.reads }

func (w *reloadChurn) ladderIPs() []string { return w.e.in.ChainIPs }
