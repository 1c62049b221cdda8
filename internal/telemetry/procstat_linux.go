//go:build linux

package telemetry

import (
	"os"
	"strconv"
	"strings"
)

// readPageFaults returns the process's cumulative minor and major
// page-fault counts from /proc/self/stat. Major faults are the
// signal the mmap snapshot path watches: a cold mapped snapshot pages
// in from disk (major faults), a warm one from the page cache (minor
// or none), so the fault counters separate "restart cost" from
// "steady-state cost" without a profiler.
func readPageFaults() (minflt, majflt uint64, ok bool) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, 0, false
	}
	// The comm field is an arbitrary parenthesized string; everything
	// after the last ')' is space-separated numerics starting at state.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, false
	}
	fields := strings.Fields(s[i+1:])
	// After the state field: ppid pgrp session tty_nr tpgid flags
	// minflt cminflt majflt — indexes 7 and 9.
	if len(fields) < 10 {
		return 0, 0, false
	}
	minflt, err1 := strconv.ParseUint(fields[7], 10, 64)
	majflt, err2 := strconv.ParseUint(fields[9], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return minflt, majflt, true
}

// readResidentBytes returns the process's resident set size from
// /proc/self/statm, whose second field counts resident pages.
func readResidentBytes() (uint64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * uint64(os.Getpagesize()), true
}
