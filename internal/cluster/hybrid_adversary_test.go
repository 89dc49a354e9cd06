package cluster_test

import (
	"encoding/binary"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

// The hybrid fault model's real adversary is a Byzantine replica whose
// *trusted subsystem stays correct*: it can send, withhold, and delay
// arbitrary messages, but every certificate it issues goes through a
// genuine TrInX with the group key. These tests give the attacker
// exactly that power — a hijacked leader position plus a real TrInX
// instance under replica 0's identity — and check the §5.2 safety
// arguments end to end.

// genuineAttacker returns a TrInX instance carrying replica 0's
// pillar-0 identity with the group key, as a compromised-but-
// SGX-protected leader would hold.
func genuineAttacker(cfg config.Config) *trinx.TrInX {
	key := crypto.NewKeyFromSeed(cfg.KeySeed)
	return trinx.New(enclave.NewPlatform("attacker"), trinx.MakeInstanceID(0, 0), 2, key, enclave.CostModel{})
}

// TestByzantineLeaderPartialDisclosure replays the crux of §5.2.3: a
// faulty leader orders a request with only ONE follower (replica 1),
// which commits and executes it, then goes silent. The view change
// must force the surviving quorum to carry the instance into view 1 —
// replica 1's continuing certificate makes concealment impossible — so
// no correct replica ever diverges and the client still gets its f+1
// matching replies.
func TestByzantineLeaderPartialDisclosure(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	attacker := c.Hijack(0) // the view-0 leader position
	tx := genuineAttacker(cfg)
	defer tx.Destroy()

	// Capture the client's request when it reaches the "leader".
	reqCh := make(chan *message.Request, 16)
	attacker.Handle(func(from uint32, m message.Message) {
		if req, ok := m.(*message.Request); ok {
			select {
			case reqCh <- req:
			default:
			}
		}
	})

	cl, err := c.NewClient(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resCh := make(chan []byte, 1)
	go func() {
		res, err := cl.Invoke([]byte{1}, false)
		if err == nil {
			resCh <- res
		}
		close(resCh)
	}()

	var req *message.Request
	select {
	case req = <-reqCh:
	case <-time.After(2 * time.Second):
		t.Fatal("attacker never received the client request")
	}

	// Certify a perfectly valid PREPARE for instance (0,1) — the
	// trusted counter permits exactly this one — and send it to
	// replica 1 ONLY.
	prep := &message.Prepare{View: 0, Order: 1, Requests: []*message.Request{req}}
	cert, err := tx.CreateIndependent(0, uint64(timeline.Pack(0, 1)), prep.Digest())
	if err != nil {
		t.Fatal(err)
	}
	prep.Cert = cert
	if err := attacker.Send(1, prep); err != nil {
		t.Fatal(err)
	}
	// Replica 1 now commits (leader PREPARE + own COMMIT = quorum 2)
	// and executes; replica 2 is in the dark. The attacker stays
	// silent from here on.

	// The client cannot finish in view 0 (only one reply); its
	// retransmissions plus the stalled followers trigger the view
	// change; the NEW-VIEW for view 1 must re-propose the instance.
	select {
	case res, ok := <-resCh:
		if !ok {
			t.Fatal("client gave up — view change did not recover the instance")
		}
		if v := binary.BigEndian.Uint64(res); v != 1 {
			t.Fatalf("counter = %d, want 1", v)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("client never completed")
	}

	// Both correct replicas must have executed exactly instance(s)
	// yielding counter 1 — divergence here would be a safety bug.
	res, err := cl.Invoke(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint64(res); v != 1 {
		t.Fatalf("post-recovery counter = %d, want 1", v)
	}
}

// TestByzantineConcealingViewChangeRejected: the attacker participates
// in an instance (consuming counter value [0|1]) and then issues a
// VIEW-CHANGE that *omits* the prepare. Its continuing certificate
// unforgeably records prev = [0|1], so correct replicas must reject
// the message as incomplete (§5.2.3, "Continuing Counter
// Certificates") — and must still reach a correct new view on their
// own.
func TestByzantineConcealingViewChangeRejected(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	attacker := c.Hijack(0)
	tx := genuineAttacker(cfg)
	defer tx.Destroy()

	// Consume counter value [0|1] with a hidden prepare nobody sees.
	hidden := &message.Prepare{View: 0, Order: 1, Requests: nil}
	hcert, err := tx.CreateIndependent(0, uint64(timeline.Pack(0, 1)), hidden.Digest())
	if err != nil {
		t.Fatal(err)
	}
	hidden.Cert = hcert

	// Now produce a concealing VIEW-CHANGE: valid continuing
	// certificate, empty prepare set. prev = [0|1] proves the lie.
	vc := &message.ViewChange{Replica: 0, Pillar: 0, From: 0, To: 1}
	vcert, err := tx.CreateContinuing(0, uint64(timeline.ViewStart(1)), vc.Digest())
	if err != nil {
		t.Fatal(err)
	}
	vc.Cert = vcert
	if vcert.Prev != uint64(timeline.Pack(0, 1)) {
		t.Fatalf("prev = %v — test setup broken", timeline.Point(vcert.Prev))
	}
	_ = attacker.Send(1, vc)
	_ = attacker.Send(2, vc)

	// Despite the poisoned VC, the correct replicas must elect view 1
	// themselves and serve clients.
	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(1); i <= 6; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != i {
			t.Fatalf("op %d: counter = %d", i, v)
		}
	}
}

// TestByzantineCheckpointEquivocationDetected: trusted MACs do not
// prevent a faulty replica from announcing a wrong checkpoint digest —
// but a single faulty announcement can never assemble a quorum, so
// correct replicas' garbage collection stays sound.
func TestByzantineCheckpointLiesCannotStabilize(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	cfg.CheckpointInterval = 4
	cfg.WindowSize = 16
	cfg.ViewChangeTimeout = 500 * time.Millisecond
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	attacker := c.Hijack(0)
	tx := genuineAttacker(cfg)
	defer tx.Destroy()

	// Spray trusted-MAC-certified checkpoints with bogus digests for
	// future orders.
	for _, o := range []timeline.Order{4, 8, 12} {
		ck := &message.Checkpoint{Order: o, Replica: 0, StateDigest: crypto.Hash([]byte("lie"))}
		cert, err := tx.CreateTrustedMAC(1, ck.Digest())
		if err != nil {
			t.Fatal(err)
		}
		ck.Cert = cert
		_ = attacker.Send(1, ck)
		_ = attacker.Send(2, ck)
	}

	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Order enough requests to cross the lied-about checkpoints; the
	// correct replicas' digests disagree with the attacker's, so only
	// genuine 2-matching quorums may stabilize.
	for i := uint64(1); i <= 12; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != i {
			t.Fatalf("op %d: counter = %d", i, v)
		}
	}
}
