package pbft

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine"
	"hybster/internal/engine/enginetest"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

func newTestEngine(t *testing.T, proto config.Protocol, id uint32) *Engine {
	t.Helper()
	cfg := config.Default(proto)
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	e, err := New(Options{
		Config:      cfg,
		ID:          id,
		Endpoint:    net.Endpoint(id),
		Application: counter.New(),
		Platform:    enclave.NewPlatform("test"),
		Telemetry:   telemetry.New(proto.String()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

func TestSignVerifyBothVariants(t *testing.T) {
	for _, proto := range []config.Protocol{config.PBFTcop, config.HybridPBFT} {
		signer := newTestEngine(t, proto, 1)
		verifier := newTestEngine(t, proto, 2)
		d := crypto.Hash([]byte("m"))
		proof, err := signer.sign(signer.pillars[0].tx, d)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !verifier.verify(verifier.pillars[0].tx, &proof, d, 1) {
			t.Fatalf("%v: valid proof rejected", proto)
		}
		if verifier.verify(verifier.pillars[0].tx, &proof, crypto.Hash([]byte("other")), 1) {
			t.Fatalf("%v: wrong digest accepted", proto)
		}
		if verifier.verify(verifier.pillars[0].tx, &proof, d, 3) {
			t.Fatalf("%v: wrong claimant accepted", proto)
		}
	}
}

// buildPreparedProof constructs a valid prepared certificate for one
// instance using real engines for every replica.
func buildPreparedProof(t *testing.T, engines []*Engine, v timeline.View, o timeline.Order, payload string) message.PreparedProof {
	t.Helper()
	proposer := engines[0].Cfg.ProposerOf(v, o)
	pp := &message.PrePrepare{View: v, Order: o,
		Requests: []*message.Request{{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte(payload)}}}
	proof, err := engines[proposer].sign(engines[proposer].pillars[0].tx, pp.Digest())
	if err != nil {
		t.Fatal(err)
	}
	pp.Proof = proof

	out := message.PreparedProof{PrePrepare: pp}
	bd := pp.BatchDigest()
	for r := uint32(0); int(r) < len(engines); r++ {
		if r == proposer {
			continue
		}
		prep := &message.PBFTPrepare{View: v, Order: o, Replica: r, BatchDigest: bd}
		pf, err := engines[r].sign(engines[r].pillars[0].tx, prep.Digest())
		if err != nil {
			t.Fatal(err)
		}
		prep.Proof = pf
		out.Prepares = append(out.Prepares, prep)
	}
	return out
}

func TestVerifyViewChangePreparedProofs(t *testing.T) {
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = newTestEngine(t, config.PBFTcop, uint32(i))
	}
	verifier := engines[3]

	proof := buildPreparedProof(t, engines, 0, 1, "x")
	vc := &message.PBFTViewChange{Replica: 1, View: 1, Prepared: []message.PreparedProof{proof}}
	pf, err := engines[1].sign(engines[1].coord.tx, vc.Digest())
	if err != nil {
		t.Fatal(err)
	}
	vc.Proof = pf
	if !verifier.coord.verifyViewChange(vc) {
		t.Fatal("valid view change rejected")
	}

	// Too few prepares: 2f = 2 required.
	short := buildPreparedProof(t, engines, 0, 2, "y")
	short.Prepares = short.Prepares[:1]
	vc2 := &message.PBFTViewChange{Replica: 1, View: 1, Prepared: []message.PreparedProof{short}}
	pf2, err := engines[1].sign(engines[1].coord.tx, vc2.Digest())
	if err != nil {
		t.Fatal(err)
	}
	vc2.Proof = pf2
	if verifier.coord.verifyViewChange(vc2) {
		t.Fatal("under-quorum prepared proof accepted")
	}

	// Digest mismatch inside the proof.
	bad := buildPreparedProof(t, engines, 0, 3, "z")
	bad.Prepares[0].BatchDigest = crypto.Hash([]byte("tampered"))
	vc3 := &message.PBFTViewChange{Replica: 1, View: 1, Prepared: []message.PreparedProof{bad}}
	pf3, err := engines[1].sign(engines[1].coord.tx, vc3.Digest())
	if err != nil {
		t.Fatal(err)
	}
	vc3.Proof = pf3
	if verifier.coord.verifyViewChange(vc3) {
		t.Fatal("tampered prepared proof accepted")
	}
}

// TestCheckpointCertificate runs the shared certificate table under
// PBFT's one-announcement check, in both configurations: an
// authenticator (PBFTcop) or a trusted MAC (HybridPBFT) from the
// announcing replica.
func TestCheckpointCertificate(t *testing.T) {
	for _, proto := range []config.Protocol{config.PBFTcop, config.HybridPBFT} {
		t.Run(proto.String(), func(t *testing.T) {
			engines := make([]*Engine, 4)
			for i := range engines {
				engines[i] = newTestEngine(t, proto, uint32(i))
			}
			verifier := engines[3]
			enginetest.CertificateTable(t, verifier.Cfg, verifier.coord.ck.Certified,
				func(r uint32, o timeline.Order, d crypto.Digest) *message.PBFTCheckpoint {
					ck := &message.PBFTCheckpoint{Order: o, Replica: r, StateDigest: d}
					proof, err := engines[r].sign(engines[r].pillars[0].tx, ck.Digest())
					if err != nil {
						t.Fatal(err)
					}
					ck.Proof = proof
					return ck
				},
				func(ck *message.PBFTCheckpoint) *message.PBFTCheckpoint {
					forged := &message.PBFTCheckpoint{Order: ck.Order, Replica: ck.Replica, StateDigest: ck.StateDigest, Proof: ck.Proof}
					if proto == config.HybridPBFT {
						forged.Proof.TCert.MAC[0] ^= 1
					} else {
						forged.Proof.Auth.MACs = slices.Clone(ck.Proof.Auth.MACs)
						forged.Proof.Auth.MACs[verifier.ID()][0] ^= 1
					}
					return forged
				})
		})
	}
}

func TestPBFTComputeTransfer(t *testing.T) {
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = newTestEngine(t, config.PBFTcop, uint32(i))
	}
	oldProof := buildPreparedProof(t, engines, 0, 2, "old")
	// Same order prepared again in a later view wins.
	newProof := buildPreparedProof(t, engines, 1, 2, "new")
	farProof := buildPreparedProof(t, engines, 0, 4, "far")

	vcSet := map[uint32]*message.PBFTViewChange{
		0: {Replica: 0, View: 2, Prepared: []message.PreparedProof{oldProof}},
		1: {Replica: 1, View: 2, Prepared: []message.PreparedProof{newProof, farProof}},
		2: {Replica: 2, View: 2, CkptOrder: 0},
	}
	start, pps := computeTransfer(vcSet)
	if start.Order != 0 || len(pps) != 4 {
		t.Fatalf("start=%d len=%d", start.Order, len(pps))
	}
	if string(pps[1].Requests[0].Payload) != "new" {
		t.Fatalf("order 2 payload %q", pps[1].Requests[0].Payload)
	}
	if pps[0].Requests != nil || pps[2].Requests != nil {
		t.Fatal("gap orders not no-ops")
	}
	if pps[3].Order != 4 {
		t.Fatalf("orders misaligned: %v", pps[3].Order)
	}
}

func TestPSlotLifecycle(t *testing.T) {
	e := newTestEngine(t, config.PBFTcop, 0)
	p := e.pillars[0]

	s := p.slot(1, 0)
	if s == nil {
		t.Fatal("slot not created")
	}
	s.executed = true
	// A view bump resets protocol state but keeps executed.
	s2 := p.slot(1, 1)
	if s2 == s || !s2.executed || s2.prePrepare != nil {
		t.Fatalf("view reset wrong: %+v", s2)
	}
	// Stale view returns nil.
	if p.slot(1, 0) != nil {
		t.Fatal("stale view slot returned")
	}
	// Out of window.
	if p.slot(p.high()+1, 1) != nil {
		t.Fatal("slot above high water mark")
	}
	p.advance(10)
	if p.slot(5, 1) != nil {
		t.Fatal("slot below low water mark after advance")
	}
	if len(p.slots) != 0 {
		t.Fatal("advance did not garbage collect")
	}
}

func TestProgressQuorums(t *testing.T) {
	e := newTestEngine(t, config.PBFTcop, 3) // backup
	p := e.pillars[0]
	s := p.slot(1, 0)

	// 2f prepares without a pre-prepare: not prepared.
	pp := &message.PrePrepare{View: 0, Order: 1}
	s.prepares[1] = &message.PBFTPrepare{BatchDigest: pp.BatchDigest()}
	s.prepares[2] = &message.PBFTPrepare{BatchDigest: pp.BatchDigest()}
	p.progress(s)
	if s.prepared {
		t.Fatal("prepared without pre-prepare")
	}
	s.setPrePrepare(pp)
	p.progress(s)
	if !s.prepared || !s.sentCommit {
		t.Fatalf("not prepared with pre-prepare + 2f prepares: %+v", s)
	}
	// Committed requires 2f+1 commits; own commit was just recorded.
	if s.committed {
		t.Fatal("committed too early")
	}
	s.commits[0] = s.batchDigest
	s.commits[1] = s.batchDigest
	p.progress(s)
	if !s.committed || !s.executed {
		t.Fatal("2f+1 commits did not commit/execute")
	}
}

// TestVotesForAnotherDigestDoNotCount pins the vote-matching rule: a
// backup that missed the original PRE-PREPARE but collected the group's
// PREPAREs and COMMITs for it must not reach prepared or committed on a
// different batch proposed for the same slot (an equivocating or
// amnesiac proposer) with those votes.
func TestVotesForAnotherDigestDoNotCount(t *testing.T) {
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = newTestEngine(t, config.PBFTcop, uint32(i))
	}
	backup := engines[3]
	p := backup.pillars[0]
	proposer := backup.Cfg.ProposerOf(0, 1)
	ppFor := func(payload string) *message.PrePrepare {
		pp := &message.PrePrepare{View: 0, Order: 1,
			Requests: []*message.Request{{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte(payload)}}}
		proof, err := engines[proposer].sign(nil, pp.Digest())
		if err != nil {
			t.Fatal(err)
		}
		pp.Proof = proof
		return pp
	}
	// vote delivers 2f PREPAREs and 2f+1 COMMITs for pp's batch from
	// the other replicas.
	vote := func(pp *message.PrePrepare) {
		for r := uint32(0); r < 3; r++ {
			if r != proposer {
				prep := &message.PBFTPrepare{View: 0, Order: 1, Replica: r, BatchDigest: pp.BatchDigest()}
				prep.Proof, _ = engines[r].sign(nil, prep.Digest())
				p.handlePrepare(r, prep)
			}
			com := &message.PBFTCommit{View: 0, Order: 1, Replica: r, BatchDigest: pp.BatchDigest()}
			com.Proof, _ = engines[r].sign(nil, com.Digest())
			p.handleCommit(r, com)
		}
	}
	a, b := ppFor("A"), ppFor("B")

	vote(a)
	p.handlePrePrepare(proposer, b)
	s := p.slots[1]
	if s == nil || s.prePrepare != b {
		t.Fatal("PRE-PREPARE for B not accepted")
	}
	if s.prepared || s.committed || s.executed {
		t.Fatalf("votes for A counted toward B: prepared=%v committed=%v executed=%v", s.prepared, s.committed, s.executed)
	}
	vote(b)
	if !s.prepared || !s.committed || !s.executed {
		t.Fatalf("matching votes did not commit B: prepared=%v committed=%v executed=%v", s.prepared, s.committed, s.executed)
	}
	vote(b) // duplicates change nothing
	if got := p.met.Committed.Value(); got != 1 {
		t.Fatalf("instance delivered %d times, want exactly once", got)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) error {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("timeout")
		}
	}
	return nil
}

// TestReadyzDetectsWedgedReplica pins /readyz's meaning: live, and not
// holding admitted work without execution progress for more than twice
// the view-change timeout. The leader runs alone in its group, so the
// request it admits can never gather a quorum.
func TestReadyzDetectsWedgedReplica(t *testing.T) {
	var offset atomic.Int64
	base := time.Now()
	cfg := config.Default(config.PBFTcop)
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	e, err := New(Options{
		Config: cfg, ID: 0, Endpoint: net.Endpoint(0), Application: counter.New(),
		Platform: enclave.NewPlatform("test"),
		Now:      func() time.Time { return base.Add(time.Duration(offset.Load())) },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	req := &message.Request{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte("x")}
	clientKeys := crypto.NewKeyStore(req.Client, crypto.NewKeyFromSeed(cfg.KeySeed))
	req.Auth = crypto.NewAuthenticator(clientKeys, req.Digest(), cfg.N)
	if err := net.Endpoint(req.Client).Send(0, req); err != nil {
		t.Fatal(err)
	}
	// The injected clock only moves when the test moves it: a nanosecond
	// per poll makes the admitted request show up as stalled work.
	if err := waitFor(func() bool { offset.Add(1); return e.Stalled() > 0 }); err != nil {
		t.Fatal("verified request never admitted")
	}
	if err := e.Readyz(); err != nil {
		t.Fatalf("fresh work already counts as wedged: %v", err)
	}

	offset.Store(int64(2*cfg.ViewChangeTimeout + time.Millisecond))
	if err := e.Healthz(); err != nil {
		t.Fatalf("wedged replica reported dead: %v", err)
	}
	if err := e.Readyz(); err == nil {
		t.Fatal("replica holding unexecutable work past 2x the view-change timeout reports ready")
	}

	// Execution progress (here: the instance arriving committed) clears it.
	e.Exec.Deliver(1, []*message.Request{req}, false)
	if err := waitFor(func() bool { return e.Readyz() == nil }); err != nil {
		t.Fatalf("not ready again after progress: %v", e.Readyz())
	}

	e.Stop()
	if e.Healthz() == nil || e.Readyz() == nil {
		t.Fatal("stopped engine reports live or ready")
	}
}

// TestSettledSlotVerifiesNoVote: a HybridPBFT backup verifies a PREPARE
// only until its slot is prepared and a COMMIT only until it is
// committed; a vote for a settled slot is dropped before it costs an
// enclave transition. A forged vote the slot still needs is verified
// and does not count. PBFTcop runs the same handlers, without ECALLs.
func TestSettledSlotVerifiesNoVote(t *testing.T) {
	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = newTestEngine(t, config.HybridPBFT, uint32(i))
	}
	cfg := config.Default(config.HybridPBFT)
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	tel := telemetry.New("hybridpbft")
	backup, err := New(Options{
		Config: cfg, ID: 3, Endpoint: net.Endpoint(3), Application: counter.New(),
		Platform: enclave.NewPlatform("backup"), Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backup.Stop)
	p := backup.pillars[0]
	ecalls := func() (n float64) {
		for name, v := range tel.Metrics().Snapshot() {
			if strings.HasPrefix(name, "hybster_trinx_ecalls_total") {
				n += v
			}
		}
		return n
	}
	deliver := func(from uint32, m message.Message) float64 {
		before := ecalls()
		p.handleEvent(engine.InMsg{From: from, Msg: m})
		return ecalls() - before
	}
	signed := func(from uint32, d crypto.Digest) message.Proof {
		proof, err := engines[from].sign(engines[from].pillars[0].tx, d)
		if err != nil {
			t.Fatal(err)
		}
		return proof
	}
	proposer := cfg.ProposerOf(0, 1)
	var voters []uint32
	for r := uint32(0); r < 3; r++ {
		if r != proposer {
			voters = append(voters, r)
		}
	}
	pp := &message.PrePrepare{View: 0, Order: 1,
		Requests: []*message.Request{{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte("op")}}}
	pp.Proof = signed(proposer, pp.Digest())
	bd := pp.BatchDigest()
	prepare := func(r uint32) *message.PBFTPrepare {
		m := &message.PBFTPrepare{View: 0, Order: 1, Replica: r, BatchDigest: bd}
		m.Proof = signed(r, m.Digest())
		return m
	}
	commit := func(r uint32) *message.PBFTCommit {
		m := &message.PBFTCommit{View: 0, Order: 1, Replica: r, BatchDigest: bd}
		m.Proof = signed(r, m.Digest())
		return m
	}

	if n := deliver(proposer, pp); n != 2 {
		t.Fatalf("PRE-PREPARE: %v ECALLs, want 2 (verify, own PREPARE)", n)
	}
	s := p.slots[1]
	forged := prepare(voters[0])
	forged.Proof.TCert.MAC[0] ^= 1
	if n := deliver(voters[0], forged); n != 1 || s.prepared {
		t.Fatalf("forged PREPARE the slot needs: %v ECALLs, prepared=%v; want 1, false", n, s.prepared)
	}
	if n := deliver(voters[0], prepare(voters[0])); n != 2 || !s.prepared {
		t.Fatalf("PREPARE the slot needs: %v ECALLs, prepared=%v; want 2 (verify, own COMMIT), true", n, s.prepared)
	}
	if n := deliver(voters[1], prepare(voters[1])); n != 0 {
		t.Fatalf("PREPARE for a prepared slot: %v ECALLs, want 0", n)
	}
	for _, r := range voters {
		if n := deliver(r, commit(r)); n != 1 {
			t.Fatalf("COMMIT %d the slot needs: %v ECALLs, want 1", r, n)
		}
	}
	if !s.committed {
		t.Fatal("2f+1 COMMITs did not commit the slot")
	}
	if n := deliver(proposer, commit(proposer)); n != 0 {
		t.Fatalf("COMMIT for a committed slot: %v ECALLs, want 0", n)
	}
}
