package cluster_test

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// byzCluster boots a Hybster group with replica 2 hijacked by an
// attacker: f = 1 is spent on the compromised replica, so the
// remaining correct majority must preserve both safety and liveness
// against everything the attacker sends.
func byzCluster(t *testing.T) (*cluster.Cluster, transport.Endpoint, *client.Client) {
	t.Helper()
	cfg := config.Default(config.HybsterS)
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 32
	cfg.ViewChangeTimeout = 600 * time.Millisecond
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	attacker := c.Hijack(2)
	cl, err := c.NewClient(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return c, attacker, cl
}

// expectProgress drives ops and asserts exact counter values — any
// equivocation or replay that slipped through would corrupt them.
func expectProgress(t *testing.T, cl *client.Client, from, to uint64) {
	t.Helper()
	for i := from; i <= to; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != i {
			t.Fatalf("op %d: counter = %d — state corrupted", i, v)
		}
	}
}

func forgedCert(kind trinx.Kind, issuer trinx.InstanceID, value uint64) trinx.Certificate {
	var mac crypto.MAC
	rand.New(rand.NewSource(int64(value))).Read(mac[:])
	return trinx.Certificate{Kind: kind, Issuer: issuer, Counter: 0, Value: value, Prev: value, MAC: mac}
}

func TestForgedPreparesRejected(t *testing.T) {
	_, attacker, cl := byzCluster(t)

	// The attacker impersonates the leader with forged certificates
	// for upcoming instances, trying to get garbage ordered.
	for o := timeline.Order(1); o <= 10; o++ {
		prep := &message.Prepare{
			View: 0, Order: o,
			Requests: []*message.Request{{Client: crypto.ClientIDBase + 9, Seq: 1, Payload: []byte{99}}},
			Cert:     forgedCert(trinx.Independent, trinx.MakeInstanceID(0, 0), uint64(timeline.Pack(0, o))),
		}
		transport.Multicast(attacker, 3, prep)
	}
	expectProgress(t, cl, 1, 10)
}

func TestForgedCommitsRejected(t *testing.T) {
	_, attacker, cl := byzCluster(t)

	// Commit flood with forged certificates for every window slot: if
	// any counted toward quorums, bogus batches could commit.
	for o := timeline.Order(1); o <= 20; o++ {
		com := &message.Commit{
			View: 0, Order: o, Replica: 2,
			BatchDigest: crypto.Hash([]byte("bogus")),
			Cert:        forgedCert(trinx.Independent, trinx.MakeInstanceID(2, 0), uint64(timeline.Pack(0, o))),
		}
		transport.Multicast(attacker, 3, com)
	}
	expectProgress(t, cl, 1, 10)
}

func TestForgedCheckpointCannotTruncate(t *testing.T) {
	_, attacker, cl := byzCluster(t)
	expectProgress(t, cl, 1, 4)

	// Fake "stable" checkpoints far in the future: if accepted, the
	// correct replicas would garbage collect instances they still
	// need.
	for _, o := range []timeline.Order{64, 128} {
		ck := &message.Checkpoint{
			Order: o, Replica: 2,
			StateDigest: crypto.Hash([]byte("fake state")),
			Cert:        forgedCert(trinx.Continuing, trinx.MakeInstanceID(2, 0), 0),
		}
		transport.Multicast(attacker, 3, ck)
	}
	expectProgress(t, cl, 5, 12)
}

func TestForgedViewChangeCannotElect(t *testing.T) {
	_, attacker, cl := byzCluster(t)
	expectProgress(t, cl, 1, 3)

	// Forged VIEW-CHANGEs for ever-higher views: without valid
	// continuing certificates they must all be rejected, and the group
	// must stay in view 0 making progress.
	for v := timeline.View(1); v <= 5; v++ {
		vc := &message.ViewChange{
			Replica: 2, Pillar: 0, From: 0, To: v,
			Cert: forgedCert(trinx.Continuing, trinx.MakeInstanceID(2, 0), uint64(timeline.ViewStart(v))),
		}
		transport.Multicast(attacker, 3, vc)
	}
	expectProgress(t, cl, 4, 10)
}

func TestReplayedMessagesHarmless(t *testing.T) {
	c, attacker, cl := byzCluster(t)

	// Record everything the correct replicas multicast... the
	// attacker sits on replica 2's endpoint, so it already receives
	// all protocol traffic. Replay it back verbatim, twice. The
	// handler runs on several link goroutines, so capture under a
	// mutex.
	var mu sync.Mutex
	var captured []message.Message
	attacker.Handle(func(from uint32, m message.Message) {
		switch m.(type) {
		case *message.Prepare, *message.Commit, *message.Checkpoint:
			mu.Lock()
			if len(captured) < 256 {
				captured = append(captured, m)
			}
			mu.Unlock()
		}
	})
	expectProgress(t, cl, 1, 8)

	mu.Lock()
	replay := append([]message.Message(nil), captured...)
	mu.Unlock()
	for round := 0; round < 2; round++ {
		for _, m := range replay {
			transport.Multicast(attacker, 3, m)
		}
	}
	expectProgress(t, cl, 9, 16)
	_ = c
}

func TestBogusClientRequestsIgnored(t *testing.T) {
	_, attacker, cl := byzCluster(t)

	// Unauthenticated "client" requests: replicas must not order them.
	for i := 0; i < 20; i++ {
		req := &message.Request{
			Client: crypto.ClientIDBase + 7, Seq: uint64(i), Payload: []byte{42},
			Auth: crypto.Authenticator{Sender: crypto.ClientIDBase + 7, MACs: make([]crypto.MAC, 3)},
		}
		transport.Multicast(attacker, 3, req)
	}
	expectProgress(t, cl, 1, 8)
}

func TestGarbageMessageFloodTolerated(t *testing.T) {
	_, attacker, cl := byzCluster(t)
	rng := rand.New(rand.NewSource(7))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			switch rng.Intn(4) {
			case 0:
				transport.Multicast(attacker, 3, &message.Prepare{
					View: timeline.View(rng.Intn(3)), Order: timeline.Order(rng.Intn(40)),
					Cert: forgedCert(trinx.Independent, trinx.MakeInstanceID(uint32(rng.Intn(3)), 0), rng.Uint64()),
				})
			case 1:
				transport.Multicast(attacker, 3, &message.Commit{
					View: 0, Order: timeline.Order(rng.Intn(40)), Replica: 2,
					Cert: forgedCert(trinx.Independent, trinx.MakeInstanceID(2, 0), rng.Uint64()),
				})
			case 2:
				transport.Multicast(attacker, 3, &message.NewView{
					View: timeline.View(rng.Intn(5)), Pillar: 0,
					Cert: forgedCert(trinx.Continuing, trinx.MakeInstanceID(1, 0xffff), 0),
				})
			case 3:
				transport.Multicast(attacker, 3, &message.StateReply{
					Replica: 2, CkptOrder: timeline.Order(rng.Intn(100)),
					Snapshot: []byte("evil"), ReplyVector: []byte("evil"),
				})
			}
		}
	}()
	expectProgress(t, cl, 1, 12)
	<-done
}

func TestHijackedReplicaDoesNotBlockViewChange(t *testing.T) {
	// The attacker holds replica 2 AND the leader crashes? That would
	// be f=2 > f — instead: attacker is the leader's position. Hijack
	// replica 0 (the view-0 leader) in a fresh cluster and verify the
	// correct replicas 1,2 elect a new view despite attacker noise.
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	attacker := c.Hijack(0)
	go func() {
		for i := 0; i < 50; i++ {
			transport.Multicast(attacker, 3, &message.Prepare{
				View: 0, Order: timeline.Order(i + 1),
				Cert: forgedCert(trinx.Independent, trinx.MakeInstanceID(0, 0), uint64(timeline.Pack(0, timeline.Order(i+1)))),
			})
			time.Sleep(5 * time.Millisecond)
		}
	}()

	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	expectProgress(t, cl, 1, 8)
}
