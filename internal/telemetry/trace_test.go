package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestTracerRingWraparound fills a small ring past capacity and checks
// the retained window is exactly the newest depth events, oldest-first,
// with seq numbers that expose how much was dropped.
func TestTracerRingWraparound(t *testing.T) {
	const depth = 8
	tr := NewTracer("hybster", depth)
	const total = 21
	for i := 0; i < total; i++ {
		tr.Record(EvCommit, 1, uint64(i), 0, "")
	}
	if tr.Len() != depth {
		t.Fatalf("Len = %d, want %d", tr.Len(), depth)
	}
	evs := tr.Events()
	if len(evs) != depth {
		t.Fatalf("Events returned %d, want %d", len(evs), depth)
	}
	for i, ev := range evs {
		wantSeq := uint64(total - depth + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Slot != wantSeq {
			t.Fatalf("event %d has slot %d, want %d (overwritten in order)", i, ev.Slot, wantSeq)
		}
		if ev.Protocol != "hybster" {
			t.Fatalf("event %d lost protocol tag: %q", i, ev.Protocol)
		}
	}
}

// TestTracerBelowCapacity pins the pre-wrap behavior: all events
// retained, in order, starting at seq 0.
func TestTracerBelowCapacity(t *testing.T) {
	tr := NewTracer("pbft", 16)
	tr.Record(EvPropose, 0, 1, 0, "batch=4")
	tr.Record(EvDeliver, 0, 1, 0, "")
	evs := tr.Events()
	if len(evs) != 2 || tr.Len() != 2 {
		t.Fatalf("retained %d/%d events, want 2", len(evs), tr.Len())
	}
	if evs[0].Kind != EvPropose || evs[0].Seq != 0 || evs[0].Note != "batch=4" {
		t.Fatalf("first event wrong: %+v", evs[0])
	}
	if evs[1].Kind != EvDeliver || evs[1].Seq != 1 {
		t.Fatalf("second event wrong: %+v", evs[1])
	}
}

// TestTracerConcurrentRecord hammers Record/Events/WriteJSON from many
// goroutines; under -race this pins the tracer's thread safety.
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer("hybster", 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(EvPrepare, uint64(w), uint64(i), uint32(w), "")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tr.Events()
			_ = tr.WriteJSON(&strings.Builder{})
		}
	}()
	wg.Wait()
	if got := tr.Events()[len(tr.Events())-1].Seq; got != 4*500-1 {
		t.Fatalf("newest seq = %d, want %d", got, 4*500-1)
	}
}

// TestEventKindJSON pins the taxonomy names in the JSON encoding.
func TestEventKindJSON(t *testing.T) {
	for kind, name := range eventKindNames {
		b, err := json.Marshal(kind)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != fmt.Sprintf("%q", name) {
			t.Fatalf("kind %d marshals to %s, want %q", kind, b, name)
		}
	}
	if EventKind(200).String() != "kind(200)" {
		t.Fatalf("unknown kind renders %q", EventKind(200).String())
	}
}

// TestDumpFile round-trips a ring through DumpFile and checks the
// envelope.
func TestDumpFile(t *testing.T) {
	tr := NewTracer("minbft", 4)
	for i := 0; i < 6; i++ {
		tr.Record(EvExec, 0, uint64(i), 0, "")
	}
	dir := filepath.Join(t.TempDir(), "dumps")
	path, err := tr.DumpFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Protocol string `json:"protocol"`
		Total    uint64 `json:"total_events"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Protocol != "minbft" || d.Total != 6 || len(d.Events) != 4 {
		t.Fatalf("envelope wrong: %+v", d)
	}
	if d.Events[0].Seq != 2 || d.Events[0].Kind != "exec" {
		t.Fatalf("oldest retained event wrong: %+v", d.Events[0])
	}
}

// TestDumpHeaderRoundTrip pins the self-describing dump header (replica
// ID, protocol, ring depth, drop count) and the digest/timestamp fields
// through a DumpFile → ReadDump round trip: offline merging must never
// depend on filenames.
func TestDumpHeaderRoundTrip(t *testing.T) {
	tr := NewTracer("hybster", 4)
	tr.SetReplica(2)
	dig := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6}
	for i := 0; i < 6; i++ {
		tr.RecordDigest(EvCommit, 1, uint64(i), 0, dig, "")
	}
	dir := t.TempDir()
	path, err := tr.DumpFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Replica != 2 || d.Protocol != "hybster" || d.RingDepth != 4 {
		t.Fatalf("header wrong: %+v", d)
	}
	if d.Total != 6 || d.Dropped != 2 || len(d.Events) != 4 {
		t.Fatalf("accounting wrong: total=%d dropped=%d events=%d", d.Total, d.Dropped, len(d.Events))
	}
	ev := d.Events[0]
	if ev.Replica != 2 || ev.Kind != EvCommit {
		t.Fatalf("event lost tags through round trip: %+v", ev)
	}
	if want := DigestPrefix(dig); ev.Digest != want || len(ev.Digest) != 2*DigestPrefixLen {
		t.Fatalf("digest prefix = %q, want %q", ev.Digest, want)
	}
	if ev.TS == 0 || ev.Mono == 0 {
		t.Fatalf("timestamps missing: ts=%d mono=%d", ev.TS, ev.Mono)
	}
}

// TestRecordAllocs pins what recording costs the heap: nothing, with a
// digest key or without. The key is kept raw in the ring and
// hex-encoded only when the ring is read.
func TestRecordAllocs(t *testing.T) {
	tr := NewTracer("pbft", 16)
	var dig [32]byte
	dig[0] = 0xab
	if n := testing.AllocsPerRun(200, func() { tr.RecordDigest(EvCommit, 1, 2, 0, dig[:], "") }); n != 0 {
		t.Errorf("RecordDigest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { tr.Record(EvExec, 1, 2, 0, "noop") }); n != 0 {
		t.Errorf("Record allocates %.1f/op, want 0", n)
	}
	tr.RecordDigest(EvCommit, 1, 3, 0, dig[:], "")
	tr.RecordDigest(EvCommit, 1, 4, 0, dig[:3], "")
	ev := tr.Events()
	if got, want := ev[len(ev)-2].Digest, DigestPrefix(dig[:]); got != want {
		t.Errorf("digest key %q, want %q", got, want)
	}
	if got, want := ev[len(ev)-1].Digest, DigestPrefix(dig[:3]); got != want {
		t.Errorf("short digest key %q, want %q", got, want)
	}
	if ev[0].Digest != "" {
		t.Errorf("event without a digest carries key %q", ev[0].Digest)
	}
}
