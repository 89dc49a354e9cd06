package wal

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

func testDecision(view, order, seq uint64) *DecisionRec {
	return &DecisionRec{
		View:  timeline.View(view),
		Order: timeline.Order(order),
		Requests: []*message.Request{{
			Client:  7,
			Seq:     seq,
			Payload: []byte{byte(order), byte(seq)},
		}},
	}
}

func testCheckpoint(order uint64) *CheckpointRec {
	return &CheckpointRec{
		Order:       timeline.Order(order),
		Digest:      crypto.HashParts([]byte("ckpt"), crypto.U64(order)),
		Snapshot:    []byte("snapshot"),
		ReplyVector: []byte("rv"),
		Proof: []message.Message{
			&message.Checkpoint{Order: timeline.Order(order), Replica: 1, Cert: trinx.Certificate{Value: order}},
			&message.Checkpoint{Order: timeline.Order(order), Replica: 2, Cert: trinx.Certificate{Value: order}},
		},
	}
}

// testPBFTCheckpoint is a stable checkpoint whose proof is PBFT's
// announcements, authenticated by MAC vectors instead of trusted MACs.
func testPBFTCheckpoint(order uint64) *CheckpointRec {
	c := testCheckpoint(order)
	c.Proof = nil
	for r := uint32(0); r < 3; r++ {
		c.Proof = append(c.Proof, &message.PBFTCheckpoint{
			Order: timeline.Order(order), Replica: r, StateDigest: c.Digest,
			Proof: message.Proof{Auth: crypto.Authenticator{Sender: r}},
		})
	}
	return c
}

// sameRec compares records by their canonical encoding: decoding turns
// nil slices (e.g. an absent MAC list) into empty ones, which trips
// reflect.DeepEqual without being a real difference.
func sameRec(a, b interface{ encode() []byte }) bool {
	return string(a.encode()) == string(b.encode())
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.Checkpoint != nil || len(rec.Decisions) != 0 {
		t.Fatalf("fresh log recovered state: %+v", rec)
	}
	want := []*DecisionRec{testDecision(0, 1, 10), testDecision(0, 2, 11), testDecision(1, 3, 12)}
	for _, d := range want {
		if err := l.AppendDecision(d); err != nil {
			t.Fatalf("AppendDecision: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, rec = mustOpen(t, dir, Options{})
	defer l.Close()
	if rec.Checkpoint != nil {
		t.Fatalf("unexpected checkpoint: %+v", rec.Checkpoint)
	}
	if len(rec.Decisions) != len(want) {
		t.Fatalf("recovered %d decisions, want %d", len(rec.Decisions), len(want))
	}
	for i, d := range want {
		if got := rec.Decisions[i]; !sameRec(&got, d) {
			t.Errorf("decision %d: got %+v want %+v", i, got, *d)
		}
	}
	if got := rec.LastOrder(); got != 3 {
		t.Errorf("LastOrder = %d, want 3", got)
	}
}

func TestCheckpointSupersedesAndGCs(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64}) // force frequent rotation
	for o := uint64(1); o <= 8; o++ {
		if err := l.AppendDecision(testDecision(0, o, o)); err != nil {
			t.Fatal(err)
		}
	}
	ck := testCheckpoint(6)
	if err := l.AppendCheckpoint(ck); err != nil {
		t.Fatalf("AppendCheckpoint: %v", err)
	}
	if err := l.AppendDecision(testDecision(0, 9, 9)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Segments fully at or below the checkpoint order are gone; the one
	// holding decisions 7-8, the checkpoint's own, and the active one
	// survive.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Errorf("GC left %d segments: %v", len(segs), segs)
	}

	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	if rec.Checkpoint == nil || rec.Checkpoint.Order != 6 {
		t.Fatalf("recovered checkpoint %+v, want order 6", rec.Checkpoint)
	}
	if !sameRec(rec.Checkpoint, ck) {
		t.Errorf("checkpoint roundtrip mismatch:\n got %+v\nwant %+v", rec.Checkpoint, ck)
	}
	var orders []uint64
	for _, d := range rec.Decisions {
		orders = append(orders, uint64(d.Order))
	}
	if !reflect.DeepEqual(orders, []uint64{7, 8, 9}) {
		t.Errorf("recovered orders %v, want [7 8 9]", orders)
	}
}

func TestRecoveryDedupsKeepingLatestView(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.AppendDecision(testDecision(0, 5, 1)); err != nil {
		t.Fatal(err)
	}
	redo := testDecision(2, 5, 99) // same order re-committed in view 2
	if err := l.AppendDecision(redo); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	if len(rec.Decisions) != 1 {
		t.Fatalf("recovered %d decisions, want 1", len(rec.Decisions))
	}
	if got := rec.Decisions[0]; !sameRec(&got, redo) {
		t.Errorf("kept %+v, want the view-2 re-commit", got)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for o := uint64(1); o <= 3; o++ {
		if err := l.AppendDecision(testDecision(0, o, o)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-frame, as a crash during write would.
	if err := os.WriteFile(path, data[:len(data)-5], 0o600); err != nil {
		t.Fatal(err)
	}

	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	if len(rec.Decisions) != 2 {
		t.Fatalf("recovered %d decisions after torn tail, want 2", len(rec.Decisions))
	}
	if rec.LastOrder() != 2 {
		t.Errorf("LastOrder = %d, want 2", rec.LastOrder())
	}
}

func TestBitFlipStopsScan(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for o := uint64(1); o <= 3; o++ {
		if err := l.AppendDecision(testDecision(0, o, o)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // corrupt the middle record's payload
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	// The CRC catches the flip; recovery keeps the intact prefix only.
	if rec.LastOrder() >= 3 {
		t.Errorf("recovered past corruption: LastOrder=%d", rec.LastOrder())
	}
}

// TestAbandonTearsUnsyncedTail pins the kill -9 simulation: Abandon
// must preserve everything fsynced, discard (part of) the unsynced
// tail — leaving a torn frame when writes were in flight — and the
// next Open must recover the durable prefix cleanly.
func TestAbandonTearsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	// A huge sync interval keeps the background flusher out of the
	// test: only the explicit Sync below makes records durable.
	l, _ := mustOpen(t, dir, Options{SyncInterval: time.Hour})
	for o := uint64(1); o <= 3; o++ {
		if err := l.AppendDecision(testDecision(0, o, o)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for o := uint64(4); o <= 6; o++ {
		if err := l.AppendDecision(testDecision(0, o, o)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	if err := l.AppendDecision(testDecision(0, 7, 7)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Abandon: %v, want ErrClosed", err)
	}

	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	last := rec.LastOrder()
	if last < 3 {
		t.Fatalf("recovered LastOrder %d: the fsynced prefix 1..3 was lost", last)
	}
	if last >= 6 {
		t.Fatalf("recovered LastOrder %d: the unsynced tail survived Abandon intact", last)
	}
	for i, d := range rec.Decisions {
		if got, want := uint64(d.Order), uint64(i+1); got != want {
			t.Fatalf("decision %d has order %d, want %d (gapless prefix)", i, got, want)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	l.Close()
	if err := l.AppendDecision(testDecision(0, 1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("sync after close: %v, want ErrClosed", err)
	}
}

func TestSealStoreRoundtripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSealStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("trinx-0"); !errors.Is(err, ErrNoSeal) {
		t.Fatalf("Load on empty store: %v, want ErrNoSeal", err)
	}
	blob1 := []byte("sealed-state-v1")
	if err := s.Save("trinx-0", blob1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("trinx-0")
	if err != nil || string(got) != string(blob1) {
		t.Fatalf("Load = %q, %v", got, err)
	}
	// Overwrite must replace wholesale.
	blob2 := []byte("v2")
	if err := s.Save("trinx-0", blob2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load("trinx-0"); string(got) != string(blob2) {
		t.Fatalf("after overwrite Load = %q", got)
	}
	// No temp droppings left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("store dir has %d entries, want 1", len(entries))
	}
	if err := s.Remove("trinx-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("trinx-0"); !errors.Is(err, ErrNoSeal) {
		t.Errorf("Load after Remove: %v, want ErrNoSeal", err)
	}
	if err := s.Remove("trinx-0"); err != nil {
		t.Errorf("double Remove: %v", err)
	}
}

// TestCheckpointRecordBytesPinned pins a Hybster checkpoint record's
// encoding. The literal was produced by the encoder of the log format
// that typed a proof as []*message.Checkpoint, so a log written by that
// format still replays.
func TestCheckpointRecordBytesPinned(t *testing.T) {
	const pinned = "02000000000000000826a5c115eae860571fb84f10acb7880fdc062d0ca32c32febda361fa931b08fc00000008736e617073686f74000000027276000000020000006a050000000000000008000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000008000000000000000000000000000000000000000000000000000000000000000000000000000000000000006a05000000000000000800000002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000000000000000000000000000000000000"
	want := testCheckpoint(8)
	if got := hex.EncodeToString(want.encode()); got != pinned {
		t.Fatalf("encoding moved:\n got  %s\n want %s", got, pinned)
	}
	raw, _ := hex.DecodeString(pinned)
	rec, err := DecodeRecord(raw)
	if err != nil {
		t.Fatalf("pinned record does not decode: %v", err)
	}
	if ck, ok := rec.(*CheckpointRec); !ok || !sameRec(ck, want) {
		t.Fatalf("pinned record decoded as %+v", rec)
	}
}

// TestPBFTCheckpointRoundTrips pins that a log keeps a PBFT stable
// checkpoint: its proof comes back as the PBFT announcements it was.
func TestPBFTCheckpointRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	want := testPBFTCheckpoint(8)
	if err := l.AppendCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	if rec.Checkpoint == nil || !sameRec(rec.Checkpoint, want) {
		t.Fatalf("recovered %+v, want %+v", rec.Checkpoint, want)
	}
	for i, m := range rec.Checkpoint.Proof {
		if ck, ok := m.(*message.PBFTCheckpoint); !ok || ck.Replica != uint32(i) {
			t.Fatalf("proof %d recovered as %T %+v", i, m, m)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xff},    // unknown tag
		{1},       // truncated decision
		{2, 0, 0}, // truncated checkpoint
		append(testDecision(0, 1, 1).encode(), 0xaa), // trailing junk
	}
	for i, c := range cases {
		if _, err := DecodeRecord(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestSnapshotlessCheckpointKeepsDecisions pins the semantics a
// race-lagged replica depends on: checkpoint *stability* can outrun
// local execution, producing a checkpoint record with no snapshot. Such
// a record proves the frontier but cannot seed state, so it must
// subsume nothing — the decisions below it survive (in memory and on
// disk) until a snapshot-bearing checkpoint covers them, and recovery
// separates the two roles as Checkpoint vs Base.
func TestSnapshotlessCheckpointKeepsDecisions(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for o := uint64(1); o <= 10; o++ {
		if err := l.AppendDecision(testDecision(1, o, o)); err != nil {
			t.Fatal(err)
		}
	}
	bare := testCheckpoint(8)
	bare.Snapshot, bare.ReplyVector = nil, nil
	if err := l.AppendCheckpoint(bare); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec := mustOpen(t, dir, Options{})
	if rec.Checkpoint == nil || rec.Checkpoint.Order != 8 || rec.Checkpoint.Snapshot != nil {
		t.Fatalf("Checkpoint = %+v; want snapshot-less order 8", rec.Checkpoint)
	}
	if rec.Base != nil {
		t.Fatalf("Base = %+v; want nil (no snapshot on disk)", rec.Base)
	}
	if len(rec.Decisions) != 10 || rec.Decisions[0].Order != 1 || rec.Decisions[9].Order != 10 {
		t.Fatalf("recovered %d decisions (want all 10, orders 1..10): %+v",
			len(rec.Decisions), rec.Decisions)
	}

	// A later checkpoint WITH a snapshot takes over both roles and
	// finally subsumes the covered decisions.
	if err := l.AppendCheckpoint(testCheckpoint(8)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = mustOpen(t, dir, Options{})
	if rec.Base == nil || rec.Base.Order != 8 || rec.Base.Snapshot == nil {
		t.Fatalf("Base = %+v; want snapshot checkpoint at 8", rec.Base)
	}
	if len(rec.Decisions) != 2 || rec.Decisions[0].Order != 9 {
		t.Fatalf("decisions after snapshot ckpt = %+v; want orders 9,10", rec.Decisions)
	}
}
