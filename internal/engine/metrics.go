package engine

import (
	"fmt"

	"hybster/internal/message"
	"hybster/internal/telemetry"
)

// Metrics holds the metric handles every protocol records, resolved
// once in New under the protocol's hybster_<proto>_ prefix, plus the
// trace helpers. Everything is nil-safe (nil telemetry = off), so
// protocol code records unconditionally.
type Metrics struct {
	tel    *telemetry.Telemetry
	prefix string

	ExecBatches  *telemetry.Counter
	ExecRequests *telemetry.Counter
	CkptsOwn     *telemetry.Counter
	CkptsStable  *telemetry.Counter
	StateXfers   *telemetry.Counter
	Suspects     *telemetry.Counter
}

// newMetrics resolves the shared handles for protocol proto ("core",
// "pbft", "minbft").
func newMetrics(tel *telemetry.Telemetry, proto string) Metrics {
	m := Metrics{tel: tel, prefix: "hybster_" + proto + "_"}
	m.ExecBatches = m.Counter("exec_batches_total", "batches delivered to the application")
	m.ExecRequests = m.Counter("exec_requests_total", "client requests executed")
	m.CkptsOwn = m.Counter("checkpoints_total", "own checkpoint announcements")
	m.CkptsStable = m.Counter("checkpoints_stable_total", "checkpoints that reached quorum stability")
	m.StateXfers = m.Counter("state_transfers_total", "state snapshots installed via transfer")
	m.Suspects = m.Counter("suspects_total", "views this replica suspected on a watchdog expiry")
	// Codec marshal-pool statistics. The counters are process-global
	// (the encoder pool is shared by every engine in the process), so
	// in-process multi-replica clusters see the same totals on each
	// replica's registry — fine for the pool hit-rate they answer for.
	tel.GaugeFunc("hybster_marshal_total", "messages marshaled (process-wide)",
		func() float64 { total, _ := message.MarshalStats(); return float64(total) })
	tel.GaugeFunc("hybster_marshal_pool_hits", "marshals served by a pooled encoder (process-wide)",
		func() float64 { _, hits := message.MarshalStats(); return float64(hits) })
	return m
}

// Counter resolves a protocol-prefixed counter.
func (m Metrics) Counter(name, help string, labels ...telemetry.Label) *telemetry.Counter {
	return m.tel.Counter(m.prefix+name, help, labels...)
}

// Gauge resolves a protocol-prefixed settable gauge.
func (m Metrics) Gauge(name, help string, labels ...telemetry.Label) *telemetry.Gauge {
	return m.tel.Gauge(m.prefix+name, help, labels...)
}

// GaugeFunc registers a protocol-prefixed sampled gauge. Registration
// replaces any callback left by a predecessor engine on the same
// registry (cluster restart), so the scrape never reads a dead
// engine's state.
func (m Metrics) GaugeFunc(name, help string, fn func() float64, labels ...telemetry.Label) {
	m.tel.GaugeFunc(m.prefix+name, help, fn, labels...)
}

// OrderingMetrics are the ordering counters of one processing unit: a
// pillar (pillar-labeled) or MinBFT's single protocol loop (no label).
type OrderingMetrics struct {
	Prepares    *telemetry.Counter
	Commits     *telemetry.Counter
	Committed   *telemetry.Counter
	Retransmits *telemetry.Counter
}

// Ordering resolves one processing unit's ordering counters.
func (m Metrics) Ordering(labels ...telemetry.Label) OrderingMetrics {
	return OrderingMetrics{
		Prepares:    m.Counter("prepares_total", "PREPARE messages sent", labels...),
		Commits:     m.Counter("commits_sent_total", "COMMIT messages sent", labels...),
		Committed:   m.Counter("committed_total", "instances committed and handed to execution", labels...),
		Retransmits: m.Counter("retransmits_total", "stalled messages re-multicast by the tick handler", labels...),
	}
}

// PillarLabel is the label of pillar idx's series.
func PillarLabel(idx uint32) telemetry.Label { return telemetry.L("pillar", fmt.Sprint(idx)) }

// Trace records one protocol event on the replica's tracer.
func (m Metrics) Trace(kind telemetry.EventKind, view, slot uint64, pillar uint32, note string) {
	m.tel.Trace(kind, view, slot, pillar, note)
}

// TraceD records one protocol event carrying the digest the event is
// about — the correlation key the cluster auditor compares across
// replicas.
func (m Metrics) TraceD(kind telemetry.EventKind, view, slot uint64, pillar uint32, digest []byte, note string) {
	m.tel.TraceDigest(kind, view, slot, pillar, digest, note)
}
