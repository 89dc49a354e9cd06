// Package audit reconstructs cluster-wide causal traces from
// per-replica telemetry and audits live protocol invariants.
//
// The package has two halves (DESIGN.md §13):
//
//   - Trace reconstruction. Every replica's telemetry.Tracer records a
//     stream of typed protocol events tagged with the replica's ID,
//     dual wall/monotonic timestamps, and the digest prefix of the
//     batch or checkpoint the event is about. Merge folds any number
//     of those streams (live rings or dumped files) into one causally
//     ordered timeline, and BuildSpans condenses the timeline into
//     per-slot spans — propose → prepare → commit → deliver → exec —
//     with per-stage latency statistics.
//
//   - Online auditing. An Auditor consumes rounds of Samples (standing,
//     metrics snapshot and trace ring, per replica) and raises
//     typed Findings when a protocol invariant is violated: commit or
//     delivery digests diverging across replicas at the same
//     coordinate (a safety violation — the PR 8 bug class), a
//     replica's delivery frontier stalling while a quorum progresses,
//     view-change storms that churn views without progress, deaf
//     per-sender UI streams on MinBFT, and checkpoint stability
//     falling far behind execution.
//
// Samples come from a Source: in-process (TelemetrySource, used by
// tests and the chaos harness) or scraped over HTTP from a replica's
// ops endpoint (HTTPSource reading /vars and /trace). A Monitor polls
// sources periodically and exposes the current Report plus a health
// check suitable for demoting a replica's /readyz.
//
// Everything here is an observer: the package imports telemetry and
// engine.Standing only, never a protocol engine, and a hung or
// unreachable replica degrades a sample rather than blocking the auditor.
package audit

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"hybster/internal/engine"
	"hybster/internal/telemetry"
)

// Sample is one replica's observability snapshot at one instant: its
// standing and the trace ring's retained events.
type Sample struct {
	// Replica is the sampled replica's ID.
	Replica uint32
	// Standing is where the replica stands, which the liveness checks
	// read. nil exempts it from them this round (harnesses leave it out
	// for replicas deliberately down, zombied or rejoining); safety
	// checks never depend on it.
	Standing *engine.Standing
	// Events is the trace ring's retained events, oldest first.
	Events []telemetry.Event
}

// Source produces Samples for one replica.
type Source interface {
	Collect() (Sample, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (Sample, error)

// Collect implements Source.
func (f SourceFunc) Collect() (Sample, error) { return f() }

// TelemetrySource samples a replica's telemetry bundle in-process —
// the zero-network path tests and the chaos harness use. standing, if
// non-nil, is consulted at collection time.
func TelemetrySource(replica uint32, tel *telemetry.Telemetry, standing func() *engine.Standing) Source {
	return SourceFunc(func() (Sample, error) {
		s := Sample{Replica: replica, Events: tel.Tracer().Events()}
		if standing != nil {
			s.Standing = standing()
		}
		return s, nil
	})
}

// HTTPSource scrapes a replica's ops endpoint: GET /trace for the
// ring (whose dump header carries the replica ID) and GET /vars for the
// standing. The zero Client gets a 5s timeout so one hung replica
// cannot stall a whole audit round.
type HTTPSource struct {
	// BaseURL is the ops endpoint root, e.g. "http://127.0.0.1:9100".
	BaseURL string
	// Client is the HTTP client to scrape with (nil → 5s timeout).
	Client *http.Client
}

// Collect implements Source by scraping /trace then /vars.
func (s *HTTPSource) Collect() (Sample, error) {
	client := s.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	base := strings.TrimRight(s.BaseURL, "/")

	resp, err := client.Get(base + "/trace")
	if err != nil {
		return Sample{}, fmt.Errorf("audit: scrape %s/trace: %w", base, err)
	}
	dump, err := telemetry.ReadDump(resp.Body)
	resp.Body.Close()
	if err != nil {
		return Sample{}, fmt.Errorf("audit: scrape %s/trace: %w", base, err)
	}

	resp, err = client.Get(base + "/vars")
	if err != nil {
		return Sample{}, fmt.Errorf("audit: scrape %s/vars: %w", base, err)
	}
	var vars struct {
		Standing *engine.Standing `json:"standing"`
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		return Sample{}, fmt.Errorf("audit: scrape %s/vars: %w", base, err)
	}

	return Sample{
		Replica:  dump.Replica,
		Standing: vars.Standing,
		Events:   dump.Events,
	}, nil
}
