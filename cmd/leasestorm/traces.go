package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"ipleasing/internal/chaos"
	"ipleasing/internal/telemetry"
)

// Assembled trace classes, most interesting first.
const (
	// ClassLifecycle is a cross-process generation-lifecycle trace: the
	// publisher's reload/publish cycle and at least one replica's
	// fetch/open/swap share a trace ID, linked through the snapshot's
	// provenance traceparent.
	ClassLifecycle = "lifecycle"
	// ClassError holds at least one error or slow-tail record.
	ClassError = "error"
	// ClassRequest is an ordinary sampled request trace.
	ClassRequest = "request"
)

// MemberRecord is one collected trace record tagged with the fleet
// member whose /debug/traces served it.
type MemberRecord struct {
	Member string `json:"member"`
	telemetry.TraceRecord
}

// AssembledTrace is one cross-referenced trace: every record the fleet
// retained under one trace ID, with chaos fault windows the trace
// overlapped attributed alongside.
type AssembledTrace struct {
	TraceID string `json:"trace_id"`
	Class   string `json:"class"`
	// Members lists the distinct fleet members holding records, sorted;
	// two or more means the trace crossed a process boundary.
	Members []string       `json:"members"`
	Records []MemberRecord `json:"records"`
	// Faults names the scheduled fault windows any record of the trace
	// overlapped — the attribution that turns "this fetch was slow" into
	// "this fetch was slow because the proxy was injecting latency".
	Faults []string `json:"faults,omitempty"`
}

// TraceSummary is the run report's assembled-trace section.
type TraceSummary struct {
	// ScrapedRecords counts records collected across every member.
	ScrapedRecords int `json:"scraped_records"`
	// CrossProcessCount counts assembled traces spanning >= 2 members.
	CrossProcessCount int `json:"cross_process_count"`
	// LifecycleCount counts ClassLifecycle traces.
	LifecycleCount int `json:"lifecycle_count"`
	// ErrorTraceCount counts ClassError traces.
	ErrorTraceCount int `json:"error_trace_count"`
	// Traces holds the most interesting assembled traces (lifecycle and
	// error first), capped at maxAssembled; TracesDropped counts the
	// rest so a capped list is never mistaken for a complete one.
	Traces        []AssembledTrace `json:"traces"`
	TracesDropped int              `json:"traces_dropped,omitempty"`
}

// maxAssembled caps the assembled traces embedded in the run report.
const maxAssembled = 32

// collectTraces assembles the fleet's cross-process traces: plant one
// guaranteed error trace per replica, scrape every member's
// /debug/traces, join records by trace ID, classify, and attribute
// overlapping fault windows.
func collectTraces(ctx context.Context, cfg StormConfig, f *fleet, start time.Time, sched chaos.Schedule) *TraceSummary {
	client := &http.Client{Timeout: 3 * time.Second}
	ids := telemetry.NewIDGen(cfg.Seed + 17)
	for _, url := range f.replicaURLs {
		plantErrorTrace(ctx, client, ids, url)
	}

	type member struct{ name, url string }
	members := []member{{"publisher", f.publisherURL}}
	for i, url := range f.replicaURLs {
		members = append(members, member{fmt.Sprintf("replica%d", i), url})
	}

	byID := map[string][]MemberRecord{}
	scraped := 0
	for _, m := range members {
		recs, err := scrapeTraces(ctx, client, m.url)
		if err != nil {
			continue // a member that died mid-run simply contributes nothing
		}
		scraped += len(recs)
		for _, rec := range recs {
			byID[rec.TraceID] = append(byID[rec.TraceID], MemberRecord{Member: m.name, TraceRecord: rec})
		}
	}

	sum := &TraceSummary{ScrapedRecords: scraped}
	var all []AssembledTrace
	for id, recs := range byID {
		all = append(all, assemble(id, recs, start, sched))
	}
	for _, t := range all {
		if len(t.Members) >= 2 {
			sum.CrossProcessCount++
		}
		switch t.Class {
		case ClassLifecycle:
			sum.LifecycleCount++
		case ClassError:
			sum.ErrorTraceCount++
		}
	}
	// Lifecycle, then error, then request; newest first within a class.
	rank := map[string]int{ClassLifecycle: 0, ClassError: 1, ClassRequest: 2}
	sort.Slice(all, func(i, j int) bool {
		if rank[all[i].Class] != rank[all[j].Class] {
			return rank[all[i].Class] < rank[all[j].Class]
		}
		return all[i].Records[0].Start.After(all[j].Records[0].Start)
	})
	if len(all) > maxAssembled {
		sum.TracesDropped = len(all) - maxAssembled
		all = all[:maxAssembled]
	}
	sum.Traces = all
	return sum
}

// assemble joins one trace ID's records into a classified, fault-
// attributed trace.
func assemble(id string, recs []MemberRecord, start time.Time, sched chaos.Schedule) AssembledTrace {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	t := AssembledTrace{TraceID: id, Records: recs, Class: ClassRequest}
	seen := map[string]bool{}
	pubReload, repReload, hasError := false, false, false
	faults := map[string]bool{}
	for _, r := range recs {
		if !seen[r.Member] {
			seen[r.Member] = true
			t.Members = append(t.Members, r.Member)
		}
		if r.Kind == telemetry.KindReload {
			if r.Member == "publisher" {
				pubReload = true
			} else {
				repReload = true
			}
		}
		if r.Kind == telemetry.KindError || r.Kind == telemetry.KindSlow || r.Status >= 400 {
			hasError = true
		}
		// Attribute fault windows the record's lifetime overlapped.
		from := r.Start.Sub(start)
		to := from + time.Duration(r.DurationMS*float64(time.Millisecond))
		for _, fw := range sched.Faults {
			if from < fw.End && to >= fw.Start {
				faults[fmt.Sprintf("%s[%v,%v)", fw.Kind, fw.Start, fw.End)] = true
			}
		}
	}
	sort.Strings(t.Members)
	for fw := range faults {
		t.Faults = append(t.Faults, fw)
	}
	sort.Strings(t.Faults)
	switch {
	case pubReload && repReload:
		t.Class = ClassLifecycle
	case hasError:
		t.Class = ClassError
	}
	return t
}

// plantErrorTrace fires one deliberately malformed lookup carrying a
// forced sampled traceparent, guaranteeing the replica retains at least
// one error-tail trace for the assembler regardless of sampling rate or
// how the storm's organic traffic happened to fail. The request is sent
// after the load phase, so it cannot leak into the error budget.
func plantErrorTrace(ctx context.Context, client *http.Client, ids *telemetry.IDGen, baseURL string) {
	sc := telemetry.SpanContext{TraceID: ids.TraceID(), SpanID: ids.SpanID(), Sampled: true}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/lookup?ip=not-an-ip", nil)
	if err != nil {
		return
	}
	req.Header.Set(telemetry.TraceparentHeader, sc.Traceparent())
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}

// scrapeTraces pulls one member's retained traces.
func scrapeTraces(ctx context.Context, client *http.Client, baseURL string) ([]telemetry.TraceRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/debug/traces?limit=512", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("debug/traces: status %d", resp.StatusCode)
	}
	var body struct {
		Traces []telemetry.TraceRecord `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Traces, nil
}
