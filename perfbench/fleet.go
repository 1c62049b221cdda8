package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// daemon is one cmd/leased child process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string        // http://host:port once listening
	done chan struct{} // closed when the process has exited
	err  error         // exit status, valid after done
}

// startDaemon launches leased with args, logging its stderr to logPath,
// and returns once it listens. leased binds before it logs "listening"
// only after its first snapshot loaded, so a listening daemon serves.
func startDaemon(name, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	d.cmd.Stderr = pw
	// The kernel kills the daemon if the benchmark dies first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()

	addrc := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !sent && strings.Contains(line, "msg=listening") {
				if addr, ok := logField(line, "addr"); ok {
					addrc <- addr
					sent = true
				}
			}
		}
		io.Copy(io.Discard, pr) // a line past the scanner's limit: keep draining
		pr.Close()
	}()
	go func() {
		d.err = d.cmd.Wait()
		<-scanned
		logf.Close()
		close(d.done)
	}()

	select {
	case addr := <-addrc:
		d.url = "http://" + addr
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening (%v); log in %s", name, d.err, logPath)
	case <-time.After(2 * time.Minute):
		d.stop()
		return nil, fmt.Errorf("%s not listening after 2m; log in %s", name, logPath)
	}
}

// logField extracts key=value from a text-format log line.
func logField(line, key string) (string, bool) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop terminates the daemon (SIGTERM, then SIGKILL after a grace
// period) and waits for it to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exited already is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.done
	}
}

// alive reports an error if the daemon has exited.
func (d *daemon) alive() error {
	select {
	case <-d.done:
		return fmt.Errorf("%s exited: %v", d.name, d.err)
	default:
		return nil
	}
}

// fleet is a publisher and one replica of it, each with its own
// snapshot store under dir.
type fleet struct {
	dir      string
	pub, rep *daemon
}

// startFleet boots the publisher on data, then a replica polling it,
// and returns once the replica's /readyz answers 200, with the time
// from spawning the publisher until then.
func startFleet(bin, dir, data string, pubArgs, repArgs []string) (*fleet, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	f := &fleet{dir: dir}
	start := time.Now()
	var err error
	f.pub, err = startDaemon("publisher", bin, filepath.Join(dir, "publisher.log"),
		append([]string{"-data", data, "-addr", "127.0.0.1:0",
			"-snapshot-dir", filepath.Join(dir, "publisher-snap")}, pubArgs...)...)
	if err != nil {
		return nil, 0, err
	}
	f.rep, err = startDaemon("replica", bin, filepath.Join(dir, "replica.log"),
		append([]string{"-addr", "127.0.0.1:0",
			"-snapshot-url", f.pub.url + "/snapshot/current",
			"-snapshot-dir", filepath.Join(dir, "replica-snap")}, repArgs...)...)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := probe.Get(f.rep.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, 0, fmt.Errorf("replica not ready after 2m")
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.rep.stop()
	f.pub.stop()
}

func (f *fleet) alive() error {
	return errors.Join(f.pub.alive(), f.rep.alive())
}

// cpu returns the publisher's and the replica's cumulative CPU time.
func (f *fleet) cpu() (pub, rep time.Duration, err error) {
	if pub, err = procCPU(f.pub.pid()); err != nil {
		return
	}
	rep, err = procCPU(f.rep.pid())
	return
}

// rss returns the publisher's and the replica's resident sets in bytes.
func (f *fleet) rss() (pub, rep int64, err error) {
	if pub, err = procRSS(f.pub.pid()); err != nil {
		return
	}
	rep, err = procRSS(f.rep.pid())
	return
}

// newestSnapshot returns the path of the newest generation file in a
// snapshot store directory.
func newestSnapshot(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "gen-*.snap"))
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no snapshot generation in %s", dir)
	}
	sort.Strings(names) // fixed-width hex generation numbers sort by age
	return names[len(names)-1], nil
}

// conn is an HTTP client pinned to a single keep-alive connection per
// host: the benchmark's load never spreads over more than two.
func conn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// getJSON fetches url into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
