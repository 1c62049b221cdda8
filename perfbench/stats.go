package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which it sorts in place. It refuses a percentile with fewer
// than minBeyond samples above it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// windowedPercentile is the p-th percentile of a phase measured in
// consecutive windows: the median of the windows' percentiles when every
// window holds enough samples for the tail guard, so a transient stall
// moves one window and not the figure; otherwise the percentile of all
// samples pooled.
func windowedPercentile(windows [][]float64, p float64) (float64, error) {
	var per, pooled []float64
	for _, w := range windows {
		pooled = append(pooled, w...)
		if v, err := percentile(append([]float64(nil), w...), p); err == nil {
			per = append(per, v)
		}
	}
	if len(windows) > 1 && len(per) == len(windows) {
		return median(per), nil
	}
	return percentile(pooled, p)
}

// median returns the middle of samples (mean of the two middle values
// for an even count), sorting a copy. It has no tail guard: it is the
// summary of repeated measurements of one quantity, not of a latency
// distribution.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// remainder is ledger subtraction: what is left of total once the
// measured parts are taken out, clamped at zero (parts measured on
// separate runs can sum past the whole).
func remainder(total float64, parts ...float64) float64 {
	for _, p := range parts {
		total -= p
	}
	if total < 0 {
		return 0
	}
	return total
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns a process's user+system CPU time from the
// contents of /proc/<pid>/stat.
func parseStatCPU(stat string) (time.Duration, error) {
	// comm (field 2) is parenthesised and may hold spaces or ')';
	// everything after the last ')' is space-separated, starting with
	// state (field 3). utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no comm field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after comm, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseStatusRSS returns VmRSS in bytes from the contents of
// /proc/<pid>/status.
func parseStatusRSS(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmRSS:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmRSS line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmRSS: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmRSS line")
}

// procCPU reads a live process's cumulative CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procRSS reads a live process's resident set in bytes.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusRSS(string(b))
}

// mib converts bytes to MiB, the unit of every *_mb metric.
func mib(n int64) float64 { return float64(n) / (1 << 20) }
