package core

import (
	"strings"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// The two tests below drive one pillar of an unstarted replica event by
// event, exactly as its mailbox would, and pin what one protocol step
// may cost and must refuse now that a follower verifies a PREPARE and
// certifies its COMMIT in one enclave transition.

// TestForgedPrepareAtCursorLeavesNoTrace: a PREPARE at the follower's
// cursor with the right sender, issuer and value but a flipped MAC is
// acknowledged by no COMMIT, leaves the pillar's counter, window and
// cursor as they were, and so does not stand in the way of the genuine
// PREPARE that follows, which commits.
func TestForgedPrepareAtCursorLeavesNoTrace(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	follower := newEngineOn(t, net, cfg, 1, nil)
	p := follower.pillars[0]

	// r0's endpoint sees what r1 sends it, in the order it was sent.
	seen := make(chan message.Message, 16)
	net.Endpoint(0).Handle(func(_ uint32, m message.Message) { seen <- m })
	// marker passes behind anything r1 sent r0 so far on the FIFO link.
	marker := func() message.Message {
		t.Helper()
		mark := &message.Checkpoint{Order: 999}
		if err := follower.Ep.Send(0, mark); err != nil {
			t.Fatal(err)
		}
		return mark
	}
	next := func() message.Message {
		t.Helper()
		select {
		case m := <-seen:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("nothing reached r0")
			return nil
		}
	}

	genuine := leaderPrepare(t, newTestEngine(t, 0, 1), 0, 1, "op")
	forged := &message.Prepare{View: genuine.View, Order: genuine.Order, Requests: genuine.Requests, Cert: genuine.Cert}
	forged.Cert.MAC[0] ^= 1

	p.handleEvent(engine.InMsg{From: 0, Msg: forged})
	if got := counterValue(t, p); got != 0 {
		t.Fatalf("counter %d after a forged PREPARE, want 0", got)
	}
	if s := p.win.Existing(1); s != nil || p.cursor != 1 {
		t.Fatalf("forged PREPARE left slot %+v, cursor %d", s, p.cursor)
	}
	if mark := marker(); next() != mark {
		t.Fatal("a COMMIT left for the forged PREPARE")
	}

	p.handleEvent(engine.InMsg{From: 0, Msg: genuine})
	if s := p.win.Existing(1); s == nil || !s.Committed {
		t.Fatalf("genuine PREPARE after the forged one did not commit: %+v", s)
	}
	if got, want := counterValue(t, p), uint64(timeline.Pack(0, 1)); got != want {
		t.Fatalf("counter %d after the genuine PREPARE, want %d", got, want)
	}
	com, ok := next().(*message.Commit)
	if !ok || com.View != 0 || com.Order != 1 || com.BatchDigest != genuine.BatchDigest() {
		t.Fatalf("r0 got %+v, want r1's COMMIT for the genuine PREPARE", com)
	}
}

// TestCommitCostsAnECallOnlyWhenNeeded: a COMMIT for a slot already
// committed in the COMMIT's view costs no enclave transition, while
// one the quorum still needs is verified — a forged one does not
// commit the slot — and one of a newer view than the slot's committed
// state counts. N = 5, so a follower's quorum (three) needs a foreign
// COMMIT besides the PREPARE and its own.
func TestCommitCostsAnECallOnlyWhenNeeded(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	cfg.N = 5
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	tel := telemetry.New("test")
	r3, err := New(Options{
		Config: cfg, ID: 3, Endpoint: net.Endpoint(3), Application: counter.New(),
		Platform: enclave.NewPlatform("r3"), Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r3.Stop)
	p := r3.pillars[0]
	ecalls := func() (n float64) {
		for name, v := range tel.Metrics().Snapshot() {
			if strings.HasPrefix(name, "hybster_trinx_ecalls_total") {
				n += v
			}
		}
		return n
	}
	// The other replicas only certify.
	peers := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(peers.Close)
	r := make([]*Engine, cfg.N)
	for _, id := range []uint32{0, 1, 2, 4} {
		r[id] = newEngineOn(t, peers, cfg, id, nil)
	}
	commit := func(from uint32, v timeline.View, batch crypto.Digest) *message.Commit {
		t.Helper()
		c := &message.Commit{View: v, Order: 1, Replica: from, BatchDigest: batch}
		cert, err := r[from].pillars[0].tx.CreateIndependent(counterO, uint64(timeline.Pack(v, 1)), c.Digest())
		if err != nil {
			t.Fatal(err)
		}
		c.Cert = cert
		return c
	}
	deliver := func(from uint32, m message.Message) float64 {
		before := ecalls()
		p.handleEvent(engine.InMsg{From: from, Msg: m})
		return ecalls() - before
	}
	slot := func() *slot { return p.win.Existing(1) }

	// View 0: r0's PREPARE and r3's own COMMIT are two of three.
	prep0 := leaderPrepare(t, r[0], 0, 1, "op")
	if n := deliver(0, prep0); n != 1 || slot() == nil || slot().Committed {
		t.Fatalf("PREPARE: %v ECALLs, slot %+v; want 1 ECALL, prepared, not committed", n, slot())
	}
	genuine := commit(2, 0, prep0.BatchDigest())
	forged := *genuine
	forged.Cert.MAC[0] ^= 1
	if n := deliver(2, &forged); n != 1 || slot().Committed {
		t.Fatalf("forged COMMIT the quorum needs: %v ECALLs, committed=%v; want 1, false", n, slot().Committed)
	}
	if n := deliver(2, genuine); n != 1 || !slot().Committed {
		t.Fatalf("genuine COMMIT the quorum needs: %v ECALLs, committed=%v; want 1, true", n, slot().Committed)
	}
	if n := deliver(4, commit(4, 0, prep0.BatchDigest())); n != 0 {
		t.Fatalf("surplus COMMIT for a committed slot cost %v ECALLs, want 0", n)
	}

	// View 1 installs before its re-proposal of order 1 has reached the
	// slot, which still holds view 0's committed state. r2's COMMIT of
	// view 1 overtakes r1's PREPARE; the quorum of view 1 needs it.
	p.handleInstallView(evInstallView{view: 1})
	prep1 := leaderPrepare(t, r[1], 1, 1, "op")
	if n := deliver(2, commit(2, 1, prep1.BatchDigest())); n != 1 {
		t.Fatalf("COMMIT of view 1 over view 0's committed slot cost %v ECALLs, want 1", n)
	}
	deliver(1, prep1)
	if s := slot(); s.View != 1 || !s.Committed {
		t.Fatalf("view 1 slot %+v: want committed in view 1 on r1's PREPARE, r2's COMMIT and r3's own", s)
	}
}

// TestProposalAboveWindowWaitsForAdvance: the sequencer numbers
// proposals without looking at the window, so the leader's pillar can be
// handed the order just above it while the stable checkpoint lags. The
// proposal is parked, not dropped with its batch, and certified as soon
// as the window's advance lets the cursor reach it.
func TestProposalAboveWindowWaitsForAdvance(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	cfg.CheckpointInterval, cfg.WindowSize = 2, 4
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	p := newEngineOn(t, net, cfg, 0, nil).pillars[0]

	high := p.win.High()
	for o := timeline.Order(1); o <= high; o++ {
		p.handleEvent(engine.Propose{View: 0, Order: o})
	}
	p.handleEvent(engine.Propose{View: 0, Order: high + 1})
	if s := p.win.Existing(high + 1); s != nil {
		t.Fatalf("order %d above the window %d got a slot %+v", high+1, high, s)
	}
	p.handleEvent(engine.Advance{Order: cfg.CheckpointInterval})
	if s := p.win.Existing(high + 1); s == nil || s.Prepare == nil {
		t.Fatalf("proposal for order %d was not certified after the window advanced", high+1)
	}
	if got, want := counterValue(t, p), uint64(timeline.Pack(0, high+1)); got != want {
		t.Fatalf("counter %d, want %d", got, want)
	}
}

// counterValue reads the ordering counter of pillar p's TrInX.
func counterValue(t *testing.T, p *pillar) uint64 {
	t.Helper()
	v, err := p.tx.(*trinx.TrInX).Counter(counterO)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
