package main

import (
	"encoding/json"
	"io"

	"ipleasing/internal/chaos"
	"ipleasing/internal/loadgen"
)

// RunReport is the machine-readable outcome of one storm: the seed and
// schedule that reproduce it, what the proxy actually did, what the
// load generator measured, and the invariant verdicts. The storm tests
// decode it from -o; humans get the same JSON.
type RunReport struct {
	Seed     int64  `json:"seed"`
	Replicas int    `json:"replicas"`
	Sabotage string `json:"sabotage,omitempty"`

	DurationMS          int64          `json:"duration_ms"`
	ScheduleFingerprint string         `json:"schedule_fingerprint"`
	Schedule            chaos.Schedule `json:"schedule"`
	FaultEvents         []chaos.Event  `json:"fault_events,omitempty"`

	Load *loadgen.Report `json:"load"`

	// Traces are the cross-process traces assembled from every member's
	// /debug/traces after the run: generation lifecycles joined across
	// publisher and replicas, error tails, and their fault attribution.
	Traces *TraceSummary `json:"traces,omitempty"`

	Samples        int `json:"samples"`
	IdentityChecks int `json:"identity_checks"`
	// ReplicaLoadModes is each replica's snapshot load mode ("mmap" or
	// "heap") as last self-reported on /statusz, keyed by base URL —
	// so a run that mixed modes (deliberately or via fallback) is
	// visible in the artifact next to any identity verdicts.
	ReplicaLoadModes map[string]string `json:"replica_load_modes,omitempty"`
	MaxLag           uint64            `json:"max_lag"`
	ErrorBudget      float64           `json:"error_budget"`
	HealSLOMS        int64             `json:"heal_slo_ms"`

	Violations []Violation `json:"violations"`
	Pass       bool        `json:"pass"`
}

// Write renders the report as indented JSON.
func (r *RunReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
