//go:build !linux

package telemetry

// readPageFaults and readResidentBytes are unavailable off Linux; the
// page-fault and resident-memory gauges are simply not registered.
func readPageFaults() (minflt, majflt uint64, ok bool) { return 0, 0, false }

func readResidentBytes() (uint64, bool) { return 0, false }
