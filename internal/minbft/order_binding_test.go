package minbft

import (
	"strings"
	"testing"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/usig"
)

func newBareEngine(t *testing.T, id uint32, keySeed string) *Engine {
	t.Helper()
	cfg := config.Default(config.MinBFT)
	cfg.KeySeed = keySeed
	net := transport.NewNetwork(transport.LinkProfile{})
	eng, err := New(Options{
		Config:      cfg,
		ID:          id,
		Endpoint:    net.Endpoint(id),
		Application: counter.New(),
		Platform:    enclave.NewPlatform(keySeed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPrepareSkipDoesNotShiftOrderBinding pins the counter→order
// derivation of §4.4: the order of a prepare is a pure function of its
// UI counter and the view anchor, NOT of how many prepares this
// replica happened to accept before it. A prepare can consume its
// counter in ingest yet be skipped by the view filter — here because
// it carries the wrong view, in production because it raced ahead of
// the NEW-VIEW that opens its view (chaos reorder faults produce
// exactly that). A replica that counted arrivals instead would bind
// every later batch one order lower than its peers: the same batches
// would commit everywhere, at rotated orders — a silent state fork
// that only surfaces when checkpoint digests stop matching.
func TestPrepareSkipDoesNotShiftOrderBinding(t *testing.T) {
	const keySeed = "order-binding-test"
	key := crypto.NewKeyFromSeed(keySeed)

	// Engine 2 is a follower of view 0, whose leader is replica 0.
	eng := newBareEngine(t, 2, keySeed)
	leader := usig.New(enclave.NewPlatform("order-binding-leader"), 0, key, enclave.CostModel{})
	defer leader.Destroy()

	sign := func(view timeline.View, tag byte) *message.MinPrepare {
		p := &message.MinPrepare{
			View: view,
			Requests: []*message.Request{{
				Client: 100, Seq: 1, Payload: []byte{tag},
			}},
		}
		for i := range p.Requests {
			p.Requests[i].Auth = crypto.NewAuthenticator(eng.Keys, p.Requests[i].Digest(), eng.Cfg.N)
		}
		ui, err := leader.CreateUI(p.Digest())
		if err != nil {
			t.Fatal(err)
		}
		p.UI = ui
		return p
	}

	// Counter 1 arrives tagged for view 1: ingest consumes the counter
	// (the UI is genuine), handlePrepare skips it (wrong view).
	p1 := sign(1, 1)
	eng.ingest(0, p1.UI, p1, true)
	if got := eng.expected[0]; got != 2 {
		t.Fatalf("skipped prepare did not consume its counter: expected = %d; want 2", got)
	}
	if len(eng.slots) != 0 {
		t.Fatalf("skipped prepare created a slot: %v", eng.slots)
	}

	// Counters 2 and 3 arrive for the current view. The anchor of view
	// 0 maps counter c to order c, so they must bind to orders 2 and 3
	// — order 1 is a permanent hole — not slide down to orders 1 and 2
	// by arrival counting.
	p2 := sign(0, 2)
	p3 := sign(0, 3)
	eng.ingest(0, p2.UI, p2, true)
	eng.ingest(0, p3.UI, p3, true)

	for counterVal, wantOrder := range map[uint64]uint64{2: 2, 3: 3} {
		o, ok := eng.orderByCounter[counterVal]
		if !ok || uint64(o) != wantOrder {
			t.Fatalf("counter %d bound to order %v (ok=%v); want %d", counterVal, o, ok, wantOrder)
		}
		s, ok := eng.slots[o]
		if !ok {
			t.Fatalf("no slot at order %d", wantOrder)
		}
		var want *message.MinPrepare
		if counterVal == 2 {
			want = p2
		} else {
			want = p3
		}
		if s.batchDigest != message.BatchDigest(want.Requests) {
			t.Fatalf("order %d holds the wrong batch", wantOrder)
		}
	}
	if _, ok := eng.slots[1]; ok {
		t.Fatal("order 1 must stay a hole, not absorb a later prepare")
	}
	if eng.nextOrder != 4 {
		t.Fatalf("nextOrder = %d; want 4", eng.nextOrder)
	}
}

// TestDeadStreamReanchorsOnViewChangeMessage pins the volatile-restart
// recovery path: a replica whose per-sender expectation restarted from
// zero while the peer's USIG counter kept running faces a gap wider
// than the holdback horizon — that stream can never drain, leaving the
// replica deaf to every UI-bearing message forever. Self-contained
// view-change-layer messages must re-anchor the dead stream at the
// sender's live position; ordering messages must not (a commit is only
// meaningful in sequence).
func TestDeadStreamReanchorsOnViewChangeMessage(t *testing.T) {
	const keySeed = "reanchor-test"
	key := crypto.NewKeyFromSeed(keySeed)

	eng := newBareEngine(t, 0, keySeed)
	peer := usig.New(enclave.NewPlatform("reanchor-peer"), 1, key, enclave.CostModel{})
	defer peer.Destroy()

	// The peer's counter ran far past the holdback horizon while this
	// replica remembers nothing (expected[1] == 0).
	burn := 4*uint64(eng.Cfg.WindowSize) + 100
	dummy := crypto.Hash([]byte("burned"))
	for i := uint64(0); i < burn; i++ {
		if _, err := peer.CreateUI(dummy); err != nil {
			t.Fatal(err)
		}
	}

	// An ordering message across the dead gap parks in holdback and
	// must NOT re-anchor the stream.
	before := eng.expected[1]
	com := &message.MinCommit{View: 5, Replica: 1, BatchDigest: crypto.Hash([]byte{1})}
	ui, err := peer.CreateUI(com.Digest())
	if err != nil {
		t.Fatal(err)
	}
	com.UI = ui
	eng.ingest(1, com.UI, com, false)
	if got := eng.expected[1]; got != before {
		t.Fatalf("ordering message re-anchored a dead stream: expected = %d; want %d", got, before)
	}
	// The standing counts the deaf stream (the auditor's deaf-stream
	// check reads it) until a view-change message re-anchors it.
	deaf := func() engine.Standing {
		var s engine.Standing
		eng.standing(&s)
		return s
	}
	if s := deaf(); s.Deaf != 1 || !strings.Contains(s.String(), " deaf=1 desired=") {
		t.Fatalf("deaf stream not in the standing: %v", s)
	}

	// A VIEW-CHANGE across the same gap is self-contained: it must
	// re-anchor the stream right after its own counter.
	vc := &message.MinViewChange{Replica: 1, View: 5}
	ui, err = peer.CreateUI(vc.Digest())
	if err != nil {
		t.Fatal(err)
	}
	vc.UI = ui
	eng.ingest(1, vc.UI, vc, false)
	if got := eng.expected[1]; got != vc.UI.Counter+1 {
		t.Fatalf("view-change did not re-anchor: expected = %d; want %d", got, vc.UI.Counter+1)
	}
	if s := deaf(); s.Deaf != 0 || strings.Contains(s.String(), "deaf=") {
		t.Fatalf("re-anchored stream still deaf: %v", s)
	}

	// The stream is live again: the peer's next message in sequence
	// processes immediately.
	com2 := &message.MinCommit{View: 5, Replica: 1, BatchDigest: crypto.Hash([]byte{2})}
	ui, err = peer.CreateUI(com2.Digest())
	if err != nil {
		t.Fatal(err)
	}
	com2.UI = ui
	eng.ingest(1, com2.UI, com2, false)
	if got := eng.expected[1]; got != com2.UI.Counter+1 {
		t.Fatalf("re-anchored stream did not resume: expected = %d; want %d", got, com2.UI.Counter+1)
	}
}
