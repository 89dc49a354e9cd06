package telemetry

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// EventKind is the type tag of a traced protocol event. The taxonomy
// (DESIGN.md §11) covers every protocol-visible transition a
// post-mortem of a chaos run needs to reconstruct a replica's story.
type EventKind uint8

const (
	EvPropose    EventKind = iota + 1 // own proposal certified (PREPARE sent)
	EvPrepare                         // foreign PREPARE accepted
	EvCommit                          // COMMIT sent or accepted
	EvDeliver                         // instance committed, handed to execution
	EvExec                            // batch executed by the application
	EvCheckpoint                      // own CHECKPOINT announced
	EvCkptStable                      // checkpoint reached quorum stability
	EvViewChange                      // VIEW-CHANGE parts emitted (view abort)
	EvNewView                         // new view installed
	EvStateXfer                       // state transfer installed a snapshot
	EvRetransmit                      // stalled instance re-multicast
	EvRecovery                        // boot-time recovery milestone
	EvSeal                            // trusted counter horizon sealed
)

var eventKindNames = map[EventKind]string{
	EvPropose:    "propose",
	EvPrepare:    "prepare",
	EvCommit:     "commit",
	EvDeliver:    "deliver",
	EvExec:       "exec",
	EvCheckpoint: "checkpoint",
	EvCkptStable: "ckpt-stable",
	EvViewChange: "view-change",
	EvNewView:    "new-view",
	EvStateXfer:  "state-transfer",
	EvRetransmit: "retransmit",
	EvRecovery:   "recovery",
	EvSeal:       "seal",
}

// String returns the taxonomy name of the kind.
func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind by name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind by its taxonomy name (offline trace
// merging reads dumped rings back in).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range eventKindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// DigestPrefixLen is how many bytes of a correlated digest an event
// retains. Eight bytes (16 hex characters) is far beyond accidental
// collision range for the windows a trace ring spans, while keeping
// events fixed-size and dumps compact.
const DigestPrefixLen = 8

// DigestPrefix renders the correlation key stored in Event.Digest: the
// hex encoding of the digest's first DigestPrefixLen bytes.
func DigestPrefix(d []byte) string {
	if len(d) == 0 {
		return ""
	}
	if len(d) > DigestPrefixLen {
		d = d[:DigestPrefixLen]
	}
	return hex.EncodeToString(d)
}

// monoBase anchors every tracer's monotonic timestamps to one
// process-wide origin, so within a process (in-process clusters, the
// chaos harness) monotonic deltas are directly comparable across
// replicas. Across processes each replica has its own origin; the
// audit layer uses the (wall, mono) pair to bound cross-replica skew
// instead of trusting either clock alone.
var monoBase = time.Now()

// Event is one traced protocol event, keyed the way the protocols
// address work: protocol, view, slot (order number), pillar — plus the
// cross-replica correlation keys the audit layer merges on: the
// replica that recorded it and the digest prefix of the batch or state
// the event is about.
type Event struct {
	// Seq is the event's position in the replica's trace stream (total
	// events recorded, not ring position); gaps after a dump reveal how
	// much the ring dropped.
	Seq uint64 `json:"seq"`
	// TS is the wall-clock timestamp in nanoseconds since the epoch.
	// Comparable across machines only up to clock skew.
	TS int64 `json:"ts_ns"`
	// Mono is a monotonic timestamp in nanoseconds since a per-process
	// origin: exact for intra-replica (and in-process cross-replica)
	// latencies, immune to wall-clock steps.
	Mono int64 `json:"mono_ns"`
	// Replica is the recording replica's ID (set via Tracer.SetReplica;
	// 0 when untagged).
	Replica uint32 `json:"replica"`
	// Protocol names the engine ("hybster", "pbft", "minbft").
	Protocol string    `json:"protocol,omitempty"`
	Kind     EventKind `json:"kind"`
	View     uint64    `json:"view"`
	Slot     uint64    `json:"slot"`
	Pillar   uint32    `json:"pillar"`
	// Digest is the hex prefix of the digest this event is about — the
	// batch digest for ordering events, the state digest for checkpoint
	// events — and the correlation key cross-replica divergence checks
	// compare. Empty when the event has no associated digest.
	Digest string `json:"digest,omitempty"`
	// Note carries bounded free-form context ("from=2", "noop").
	Note string `json:"note,omitempty"`
}

// Tracer is a fixed-size ring of protocol events. Recording is a
// mutex-guarded copy into the ring — cheap enough for protocol-rate
// events (not per-byte ones) — and, like every instrument in this
// package, safe on a nil receiver so disabled tracing costs one
// branch.
type Tracer struct {
	protocol string

	mu      sync.Mutex
	replica uint32
	ring    []entry
	next    uint64 // total events ever recorded
}

// entry is one ring slot: an Event's fields packed tighter than Event's
// JSON order allows (the protocol is the tracer's own), with the digest
// key still raw, so recording copies eight bytes instead of
// hex-encoding a fresh string per event. Events and the dump rebuild
// each Event (DigestPrefix) when the ring is read.
type entry struct {
	seq, view, slot uint64
	ts, mono        int64
	note            string
	replica, pillar uint32
	kind            EventKind
	key             digestKey
}

// digestKey is an event's digest correlation key, raw: the first
// DigestPrefixLen bytes of the digest and how many there are.
type digestKey struct {
	b [DigestPrefixLen]byte
	n uint8
}

func (e *entry) event(protocol string) Event {
	return Event{
		Seq: e.seq, TS: e.ts, Mono: e.mono, Replica: e.replica, Protocol: protocol,
		Kind: e.kind, View: e.view, Slot: e.slot, Pillar: e.pillar,
		Digest: DigestPrefix(e.key.b[:e.key.n]), Note: e.note,
	}
}

// DefaultTraceDepth is the ring size NewTracer uses for 0.
const DefaultTraceDepth = 4096

// NewTracer creates a tracer whose ring holds depth events (0 selects
// DefaultTraceDepth). protocol tags every event.
func NewTracer(protocol string, depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	return &Tracer{protocol: protocol, ring: make([]entry, depth)}
}

// SetReplica tags every subsequently recorded event (and the dump
// header) with the replica's ID, the identity cross-replica merging
// keys on. Nil-safe.
func (t *Tracer) SetReplica(id uint32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.replica = id
	t.mu.Unlock()
}

// Record appends one event, overwriting the oldest once the ring is
// full. Nil-safe.
func (t *Tracer) Record(kind EventKind, view, slot uint64, pillar uint32, note string) {
	t.record(kind, view, slot, pillar, nil, note)
}

// RecordDigest appends one event carrying a digest correlation key
// (the first DigestPrefixLen bytes, hex in Event.Digest). Nil-safe.
func (t *Tracer) RecordDigest(kind EventKind, view, slot uint64, pillar uint32, digest []byte, note string) {
	t.record(kind, view, slot, pillar, digest, note)
}

func (t *Tracer) record(kind EventKind, view, slot uint64, pillar uint32, digest []byte, note string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	e := &t.ring[t.next%uint64(len(t.ring))]
	*e = entry{
		seq: t.next, ts: now.UnixNano(), mono: now.Sub(monoBase).Nanoseconds(),
		replica: t.replica, kind: kind, view: view, slot: slot, pillar: pillar, note: note,
	}
	e.key.n = uint8(copy(e.key.b[:], digest))
	t.next++
	t.mu.Unlock()
}

// Len returns the number of events currently held (≤ ring depth).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < uint64(len(t.ring)) {
		return int(t.next)
	}
	return len(t.ring)
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	events, _, _ := t.snapshot()
	return events
}

// snapshot copies the retained events oldest-first and reads the total
// recorded and the replica tag, all under one lock acquisition, so the
// totals describe exactly the events copied. The Events are built
// after the lock is released.
func (t *Tracer) snapshot() (events []Event, total uint64, replica uint32) {
	t.mu.Lock()
	n := uint64(len(t.ring))
	start, count := uint64(0), t.next
	if t.next > n {
		start, count = t.next-n, n
	}
	entries := make([]entry, count)
	for i := range entries {
		entries[i] = t.ring[(start+uint64(i))%n]
	}
	total, replica = t.next, t.replica
	t.mu.Unlock()
	events = make([]Event, count)
	for i := range entries {
		events[i] = entries[i].event(t.protocol)
	}
	return events, total, replica
}

// TraceDump is the JSON envelope of a dumped ring. The header fields
// (replica, protocol, ring depth, drop count) make a dump file
// self-describing: offline merging never depends on filenames or
// out-of-band knowledge of which replica produced it.
type TraceDump struct {
	Replica   uint32 `json:"replica"`
	Protocol  string `json:"protocol"`
	RingDepth int    `json:"ring_depth"`
	Dumped    int64  `json:"dumped_ts_ns"`
	Total     uint64 `json:"total_events"`
	// Dropped counts events the ring overwrote before the dump: Total
	// minus the events the file actually carries.
	Dropped uint64  `json:"dropped_events"`
	Events  []Event `json:"events"`
}

// WriteJSON writes the retained events as a JSON document (a TraceDump).
// Events and header totals come from one snapshot, so the header
// describes exactly the events the dump carries even while recording
// continues concurrently.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return json.NewEncoder(w).Encode(TraceDump{})
	}
	events, total, replica := t.snapshot()
	d := TraceDump{
		Replica: replica, Protocol: t.protocol, RingDepth: len(t.ring),
		Dumped: time.Now().UnixNano(), Total: total,
		Dropped: total - uint64(len(events)),
		Events:  events,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// DumpFile writes the ring to dir/trace-<unix-nanos>.json (creating
// dir if needed) and returns the path; the post-mortem artifact the
// SIGQUIT handler and POST /trace/dump produce.
func (t *Tracer) DumpFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: trace dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%d.json", time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("telemetry: trace dump: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return "", fmt.Errorf("telemetry: trace dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("telemetry: trace dump: %w", err)
	}
	return path, nil
}

// ReadDump parses a dumped ring back in (the offline half of DumpFile).
func ReadDump(r io.Reader) (*TraceDump, error) {
	var d TraceDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: read trace dump: %w", err)
	}
	return &d, nil
}
