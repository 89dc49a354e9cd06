package cluster_test

import (
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// These tests target the off-pillar authenticator check: requests and
// prepares whose client authenticators are corrupted must be rejected
// on the inbound route *before* they reach a pillar mailbox.
// Two observables pin that down:
//
//  1. hybster_verify_rejected_total rises on the correct replicas —
//     the rejection happened on the inbound route, not on a pillar.
//  2. The replicated counter stays exact. Every corrupted request
//     carries payload {1}; had even one slipped past the check into
//     ordering and execution, the counter would be off by one and
//     expectProgress would fail on the next legit op.

// corruptedRequest builds a request whose authenticator is structurally
// valid (right sender, right MAC count) but cryptographically garbage.
func corruptedRequest(seq uint64) *message.Request {
	macs := make([]crypto.MAC, 3)
	for i := range macs {
		macs[i][0] = byte(seq)
		macs[i][31] = 0x5a
	}
	return &message.Request{
		Client: crypto.ClientIDBase + 40, Seq: seq, Payload: []byte{1},
		Auth: crypto.Authenticator{Sender: crypto.ClientIDBase + 40, MACs: macs},
	}
}

// waitMetricSum polls the summed metric across the given replicas until
// it is positive or the deadline passes.
func waitMetricSum(t *testing.T, c *cluster.Cluster, name string, ids []uint32, deadline time.Duration) float64 {
	t.Helper()
	var sum float64
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		sum = 0
		for _, id := range ids {
			sum += c.MetricValue(id, name)
		}
		if sum > 0 {
			return sum
		}
	}
	return sum
}

func TestCorruptedAuthenticatorsRejectedOffPillar(t *testing.T) {
	c, attacker, cl := byzCluster(t)
	correct := []uint32{0, 1} // replica 2 is hijacked (n = 2f+1 = 3)

	// Flood corrupted-auth requests directly (the path a byzantine
	// client or relaying replica would use)...
	for i := 0; i < 16; i++ {
		transport.Multicast(attacker, 3, corruptedRequest(uint64(i+1)))
	}
	// ...and corrupted-auth requests smuggled inside PREPAREs, which
	// the engines check on the inbound route before the pillar ever
	// sees them.
	for o := timeline.Order(1); o <= 8; o++ {
		prep := &message.Prepare{
			View: 0, Order: o,
			Requests: []*message.Request{corruptedRequest(uint64(o))},
			Cert:     forgedCert(trinx.Independent, trinx.MakeInstanceID(0, 0), uint64(timeline.Pack(0, o))),
		}
		transport.Multicast(attacker, 3, prep)
	}

	if sum := waitMetricSum(t, c, "hybster_verify_rejected_total", correct, 3*time.Second); sum == 0 {
		t.Fatal("verify stage rejected nothing despite corrupted authenticators")
	}

	// The counter must be exact: any corrupted request that reached a
	// pillar mailbox and got ordered would add its payload byte.
	expectProgress(t, cl, 1, 8)

	// And the executed-request counters must account for exactly the
	// legit ops — nothing rejected was ordered.
	for _, id := range correct {
		if got := c.MetricValue(id, "hybster_core_exec_requests_total"); got != 8 {
			t.Fatalf("replica %d executed %v requests, want 8 — a rejected request reached ordering", id, got)
		}
	}
}

func TestCorruptedAuthenticatorsRejectedMinBFT(t *testing.T) {
	cfg := config.Default(config.MinBFT)
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
	correct := []uint32{0, 1}

	for i := 0; i < 16; i++ {
		transport.Multicast(attacker, 3, corruptedRequest(uint64(i+1)))
	}

	if sum := waitMetricSum(t, c, "hybster_verify_rejected_total", correct, 3*time.Second); sum == 0 {
		t.Fatal("verify stage rejected nothing despite corrupted authenticators")
	}
	expectProgress(t, cl, 1, 8)
	for _, id := range correct {
		if got := c.MetricValue(id, "hybster_minbft_exec_requests_total"); got != 8 {
			t.Fatalf("replica %d executed %v requests, want 8", id, got)
		}
	}
}

// TestVerifyStageCountsLegitTraffic closes the loop on the happy path:
// legit client load must pass the inbound check (verified
// counter rises) and nothing may be rejected in a fault-free cluster.
func TestVerifyStageCountsLegitTraffic(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := c.NewClient(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	expectProgress(t, cl, 1, 8)

	all := []uint32{0, 1, 2}
	if sum := waitMetricSum(t, c, "hybster_verify_verified_total", all, 3*time.Second); sum == 0 {
		t.Fatal("no traffic flowed through the parallel verify stage")
	}
	for _, id := range all {
		if rej := c.MetricValue(id, "hybster_verify_rejected_total"); rej != 0 {
			t.Fatalf("replica %d rejected %v batches in a fault-free run", id, rej)
		}
	}
}
