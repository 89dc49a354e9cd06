package core

import (
	"errors"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine/enginetest"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// newTestEngine builds an unstarted engine with zero-cost enclaves for
// white-box verification tests.
func newTestEngine(t *testing.T, id uint32, pillars int) *Engine {
	t.Helper()
	proto := config.HybsterS
	if pillars > 1 {
		proto = config.HybsterX
	}
	cfg := config.Default(proto)
	cfg.Pillars = pillars
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	return newEngineOn(t, net, cfg, id, nil)
}

// newEngineOn builds an unstarted engine for replica id on net; a nil
// now reads the wall clock.
func newEngineOn(t *testing.T, net *transport.Network, cfg config.Config, id uint32, now func() time.Time) *Engine {
	t.Helper()
	e, err := New(Options{
		Config:      cfg,
		ID:          id,
		Endpoint:    net.Endpoint(id),
		Application: counter.New(),
		Platform:    enclave.NewPlatform("test"),
		Now:         now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// leaderPrepare certifies a prepare via engine e's pillar TrInX.
func leaderPrepare(t *testing.T, e *Engine, v timeline.View, o timeline.Order, payload string) *message.Prepare {
	t.Helper()
	var reqs []*message.Request
	if payload != "" {
		reqs = []*message.Request{{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte(payload)}}
	}
	p := &message.Prepare{View: v, Order: o, Requests: reqs}
	u := e.Cfg.PillarOf(o) % uint32(len(e.pillars))
	cert, err := e.pillars[u].tx.CreateIndependent(counterO, uint64(timeline.Pack(v, o)), p.Digest())
	if err != nil {
		t.Fatal(err)
	}
	p.Cert = cert
	return p
}

func TestVerifyPrepareChecks(t *testing.T) {
	leader := newTestEngine(t, 0, 1)
	follower := newTestEngine(t, 1, 1)
	tx := follower.pillars[0].tx

	good := leaderPrepare(t, leader, 0, 1, "")
	if err := follower.verifyPrepare(tx, good, 0); err != nil {
		t.Fatalf("valid prepare rejected: %v", err)
	}
	if err := follower.verifyEmbeddedPrepare(tx, good); err != nil {
		t.Fatalf("valid embedded prepare rejected: %v", err)
	}

	// Wrong sender.
	if err := follower.verifyPrepare(tx, good, 2); !errors.Is(err, errBadSender) {
		t.Fatalf("wrong sender: %v", err)
	}
	// Wrong certificate kind.
	bad := *good
	bad.Cert.Kind = trinx.Continuing
	if err := follower.verifyEmbeddedPrepare(tx, &bad); err == nil {
		t.Fatal("continuing cert accepted for prepare")
	}
	// Wrong value (prepared for different instance).
	bad = *good
	bad.Order = 2
	if err := follower.verifyEmbeddedPrepare(tx, &bad); err == nil {
		t.Fatal("value mismatch accepted")
	}
	// Tampered batch: digest no longer matches the certificate. Built
	// fresh (not copied) so the digest is computed from the swapped
	// content — a receiver decoding a tampered wire message always
	// starts from a cold digest cache.
	swapped := &message.Prepare{
		View: good.View, Order: good.Order, Cert: good.Cert,
		Requests: []*message.Request{{Client: 1, Seq: 9, Payload: []byte("swapped")}},
	}
	if err := follower.verifyEmbeddedPrepare(tx, swapped); err == nil {
		t.Fatal("batch swap accepted")
	}
}

func TestVerifyViewChangeCompleteness(t *testing.T) {
	faulty := newTestEngine(t, 0, 1)
	verifier := newTestEngine(t, 1, 1)
	vtx := verifier.pillars[0].tx

	// The faulty replica participated up to order 2 in view 0.
	p1 := leaderPrepare(t, faulty, 0, 1, "")
	p2 := leaderPrepare(t, faulty, 0, 2, "")

	// Complete disclosure verifies.
	full := &message.ViewChange{Replica: 0, Pillar: 0, From: 0, To: 1,
		Prepares: []*message.Prepare{p1, p2}}
	cert, err := faulty.pillars[0].tx.CreateContinuing(counterO, uint64(timeline.ViewStart(1)), full.Digest())
	if err != nil {
		t.Fatal(err)
	}
	full.Cert = cert
	if err := verifier.verifyViewChangePart(vtx, full); err != nil {
		t.Fatalf("complete view-change rejected: %v", err)
	}

	// A second VC (counter now at [1|0]) that conceals p2: prev still
	// proves [1|0]... craft concealment on a fresh engine instead.
	concealer := newTestEngine(t, 2, 1)
	c1 := leaderPrepare(t, concealer, 0, 1, "") // wrong proposer? order 1's proposer is 0...
	_ = c1
	// Use replica 0 semantics: build a fresh faulty engine.
	faulty2 := newTestEngine(t, 0, 1)
	q1 := leaderPrepare(t, faulty2, 0, 1, "")
	_ = leaderPrepare(t, faulty2, 0, 2, "") // counter moves to [0|2], prepare withheld
	hiding := &message.ViewChange{Replica: 0, Pillar: 0, From: 0, To: 1,
		Prepares: []*message.Prepare{q1}}
	cert2, err := faulty2.pillars[0].tx.CreateContinuing(counterO, uint64(timeline.ViewStart(1)), hiding.Digest())
	if err != nil {
		t.Fatal(err)
	}
	hiding.Cert = cert2
	if err := verifier.verifyViewChangePart(vtx, hiding); !errors.Is(err, errIncompleteVC) {
		t.Fatalf("concealing view-change: err = %v, want errIncompleteVC", err)
	}
}

func TestVerifyViewChangeStructural(t *testing.T) {
	e := newTestEngine(t, 0, 1)
	verifier := newTestEngine(t, 1, 1)
	vtx := verifier.pillars[0].tx

	mk := func(mutate func(*message.ViewChange)) *message.ViewChange {
		vc := &message.ViewChange{Replica: 0, Pillar: 0, From: 0, To: 1}
		mutate(vc)
		return vc
	}
	// to <= from
	vc := mk(func(v *message.ViewChange) { v.To = 0 })
	if err := verifier.verifyViewChangePart(vtx, vc); err == nil {
		t.Fatal("to<=from accepted")
	}
	// pillar out of range
	vc = mk(func(v *message.ViewChange) { v.Pillar = 9 })
	if err := verifier.verifyViewChangePart(vtx, vc); err == nil {
		t.Fatal("bad pillar accepted")
	}
	// forged cert
	vc = mk(func(v *message.ViewChange) {})
	vc.Cert = trinx.Certificate{Kind: trinx.Continuing,
		Issuer: trinx.MakeInstanceID(0, 0), Value: uint64(timeline.ViewStart(1))}
	if err := verifier.verifyViewChangePart(vtx, vc); err == nil {
		t.Fatal("forged cert accepted")
	}
	_ = e
}

func TestComputeTransferPicksHighestViewAndFillsGaps(t *testing.T) {
	r0 := newTestEngine(t, 0, 1)
	r1 := newTestEngine(t, 1, 1)

	// Replica 0 discloses a view-0 prepare for order 2; replica 1 a
	// re-proposal of order 2 in view 1 (higher view wins) and a
	// prepare for order 4 (gap at 3 → no-op).
	oldP := leaderPrepare(t, r0, 0, 2, "old")
	newP := leaderPrepare(t, r1, 1, 2, "new")
	farP := leaderPrepare(t, r1, 1, 4, "far")

	vcSet := map[uint32][]*message.ViewChange{
		0: {{Replica: 0, Pillar: 0, From: 0, To: 2, Prepares: []*message.Prepare{oldP}}},
		1: {{Replica: 1, Pillar: 0, From: 1, To: 2, Prepares: []*message.Prepare{newP, farP}}},
	}
	start, props := computeTransfer(vcSet, nil)
	if start.Order != 0 {
		t.Fatalf("startCkpt = %d", start.Order)
	}
	if len(props) != 4 {
		t.Fatalf("props = %d, want 4 (orders 1..4)", len(props))
	}
	if props[0].order != 1 || props[0].batch != nil {
		t.Fatalf("order 1 should be a no-op: %+v", props[0])
	}
	if string(props[1].batch[0].Payload) != "new" {
		t.Fatalf("order 2 did not take the highest view: %q", props[1].batch[0].Payload)
	}
	if props[2].batch != nil {
		t.Fatalf("order 3 should be a no-op")
	}
	if string(props[3].batch[0].Payload) != "far" {
		t.Fatalf("order 4 batch: %+v", props[3])
	}
}

func TestComputeTransferRespectsCheckpoint(t *testing.T) {
	r0 := newTestEngine(t, 0, 1)
	low := leaderPrepare(t, r0, 0, 3, "below")
	vcSet := map[uint32][]*message.ViewChange{
		0: {{Replica: 0, Pillar: 0, From: 0, To: 1, CkptOrder: 0, Prepares: []*message.Prepare{low}}},
		1: {{Replica: 1, Pillar: 0, From: 0, To: 1, CkptOrder: 5}},
	}
	start, props := computeTransfer(vcSet, nil)
	if start.Order != 5 {
		t.Fatalf("startCkpt = %d, want max over quorum (5)", start.Order)
	}
	if len(props) != 0 {
		t.Fatalf("instances below the checkpoint re-proposed: %+v", props)
	}
}

func TestCheckFromRule(t *testing.T) {
	e := newTestEngine(t, 0, 1)
	c := e.coord

	vc := func(r uint32, from timeline.View) []*message.ViewChange {
		return []*message.ViewChange{{Replica: r, Pillar: 0, From: from, To: 5}}
	}
	acksFor := func(acks map[uint32][]*message.NewViewAck) func(timeline.View) map[uint32][]*message.NewViewAck {
		return func(timeline.View) map[uint32][]*message.NewViewAck { return acks }
	}
	none := acksFor(nil)
	// All From == 0: initial view needs no confirmation.
	if _, ok := c.checkFromRule(map[uint32][]*message.ViewChange{0: vc(0, 0), 1: vc(1, 0)}, none); !ok {
		t.Fatal("From=0 quorum rejected")
	}
	// vmax = 3 confirmed by two replicas (f+1 = 2): ok.
	set := map[uint32][]*message.ViewChange{0: vc(0, 3), 1: vc(1, 3), 2: vc(2, 0)}
	if vmax, ok := c.checkFromRule(set, none); !ok || vmax != 3 {
		t.Fatalf("vmax=%d ok=%v", vmax, ok)
	}
	// vmax = 3 confirmed by only one VC: not ok without acks.
	set = map[uint32][]*message.ViewChange{0: vc(0, 3), 1: vc(1, 0)}
	if _, ok := c.checkFromRule(set, none); ok {
		t.Fatal("single confirmation satisfied f+1 rule")
	}
	// ...but an ack for view 3 from another replica completes it.
	acks := map[uint32][]*message.NewViewAck{
		2: {{Replica: 2, Pillar: 0, View: 3}},
	}
	if _, ok := c.checkFromRule(set, acksFor(acks)); !ok {
		t.Fatal("ack did not count toward the From rule")
	}
	// An ack from the same replica that already confirmed via VC must
	// not double count.
	acks = map[uint32][]*message.NewViewAck{
		0: {{Replica: 0, Pillar: 0, View: 3}},
	}
	if _, ok := c.checkFromRule(set, acksFor(acks)); ok {
		t.Fatal("same replica counted twice")
	}
}

func TestMergePrepares(t *testing.T) {
	r0 := newTestEngine(t, 0, 1)
	r1 := newTestEngine(t, 1, 1)
	a1 := leaderPrepare(t, r0, 0, 1, "a")
	a2 := leaderPrepare(t, r0, 0, 2, "a")
	b2 := leaderPrepare(t, r1, 1, 2, "b") // higher view for order 2

	got := mergePrepares([]*message.Prepare{a1, a2}, []*message.Prepare{b2})
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Order != 1 || got[1].Order != 2 {
		t.Fatalf("not sorted: %v %v", got[0].Order, got[1].Order)
	}
	if got[1].View != 1 {
		t.Fatal("higher-view prepare lost in merge")
	}
	// Nil second operand returns the first untouched.
	same := mergePrepares([]*message.Prepare{a1}, nil)
	if len(same) != 1 || same[0] != a1 {
		t.Fatal("identity merge broken")
	}
}

// TestCheckpointCertificate runs the shared certificate table under
// Hybster's one-announcement check: a trusted MAC from the announcing
// replica's TrInX.
func TestCheckpointCertificate(t *testing.T) {
	signers := []*Engine{newTestEngine(t, 0, 1), newTestEngine(t, 1, 1)}
	verifier := newTestEngine(t, 2, 1)
	enginetest.CertificateTable(t, verifier.Cfg, verifier.coord.ck.Certified,
		func(r uint32, o timeline.Order, d crypto.Digest) *message.Checkpoint {
			ck := &message.Checkpoint{Order: o, Replica: r, StateDigest: d}
			cert, err := signers[r].pillars[0].tx.CreateTrustedMAC(counterM, ck.Digest())
			if err != nil {
				t.Fatal(err)
			}
			ck.Cert = cert
			return ck
		},
		func(ck *message.Checkpoint) *message.Checkpoint {
			forged := &message.Checkpoint{Order: ck.Order, Replica: ck.Replica, StateDigest: ck.StateDigest, Cert: ck.Cert}
			forged.Cert.MAC[0] ^= 1
			return forged
		})
}

// TestViewChangeSizeBoundedAcrossViews validates the §4.4 claim Hybster
// is designed around: unlike history-based protocols, the state a
// replica must disclose in a VIEW-CHANGE never exceeds its ordering
// window, no matter how many view changes pile up back to back.
func TestViewChangeSizeBoundedAcrossViews(t *testing.T) {
	e := newTestEngine(t, 0, 1)
	p := e.pillars[0]
	windowSlots := int(e.Cfg.WindowSize)

	for v := timeline.View(0); v < 12; v++ {
		// Act as the proposer of view v (replica 0 leads views 0,3,6,...
		// but the pillar only checks counter order, so we can fill the
		// window in any view we claim to lead) — fill every slot.
		filled := 0
		for o := p.win.Low() + 1; o <= p.win.High(); o++ {
			prep := &message.Prepare{View: v, Order: o}
			cert, err := p.tx.CreateIndependent(counterO, uint64(timeline.Pack(v, o)), prep.Digest())
			if err != nil {
				t.Fatalf("view %d order %d: %v", v, o, err)
			}
			prep.Cert = cert
			if s := p.win.SetPrepare(prep); s != nil {
				filled++
			}
		}
		if filled == 0 {
			t.Fatalf("view %d: window filling failed", v)
		}

		// Collect the VIEW-CHANGE part for the next view.
		reply := make(chan *message.ViewChange, 1)
		p.handleCollectVC(evCollectVC{from: v, to: v + 1, reply: reply})
		vc := <-reply
		if vc == nil {
			t.Fatalf("view %d: no view-change part", v)
		}
		if len(vc.Prepares) > windowSlots {
			t.Fatalf("view %d: view-change discloses %d prepares — exceeds window %d (unbounded history!)",
				v, len(vc.Prepares), windowSlots)
		}
		if size := transport.EstimateSize(vc); size > 300*windowSlots+4096 {
			t.Fatalf("view %d: view-change size %d grows beyond the window bound", v, size)
		}
		// The pillar resumes in the new view with the same window.
		p.handleInstallView(evInstallView{view: v + 1, startCkpt: p.win.Low()})
	}
}
