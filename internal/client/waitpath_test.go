package client

import (
	"errors"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/transport"
)

func (c *Client) isDirect() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.direct
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// While the preferred replica is unreachable only the first request
// pays a timeout: a first-attempt success of a multicast says nothing
// about the preferred replica and must not re-arm direct mode. Once it
// answers again — its reply may well be the surplus third — the client
// returns to single-destination sends.
func TestDirectModeHoldsThroughPreferredOutage(t *testing.T) {
	cfg, net, replicas := setupRelaying(t)
	const timeout = 150 * time.Millisecond
	cl := newClient(t, cfg, net, timeout)

	net.Isolate(0)
	start := time.Now()
	if _, err := cl.Invoke([]byte("first"), false); err != nil {
		t.Fatal(err)
	}
	if first := time.Since(start); first < timeout {
		t.Fatalf("first request took %v with the preferred replica cut off; want one timeout", first)
	}
	start = time.Now()
	for i := 0; i < 9; i++ {
		if _, err := cl.Invoke([]byte("next"), false); err != nil {
			t.Fatal(err)
		}
	}
	if rest := time.Since(start); rest >= timeout {
		t.Fatalf("nine requests after the first took %v: the client went back to the dead replica", rest)
	}
	if cl.isDirect() {
		t.Fatal("direct mode re-armed without any reply from the preferred replica")
	}

	net.HealNode(0)
	if _, err := cl.Invoke([]byte("healed"), false); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the preferred replica's reply re-arms direct mode", cl.isDirect)
	// Eleven multicasts so far: the first request's retransmission, nine
	// requests during the outage and the one after the heal.
	waitUntil(t, "the last multicast reached replicas 1 and 2", func() bool {
		return replicas[1].seenFromClients() == 11 && replicas[2].seenFromClients() == 11
	})
	before := [2]int{11, 11}
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke([]byte("direct"), false); err != nil {
			t.Fatal(err)
		}
	}
	if after := [2]int{replicas[1].seenFromClients(), replicas[2].seenFromClients()}; after != before {
		t.Fatalf("replicas 1,2 saw %v client sends, %v before: the client still multicasts", after, before)
	}
}

// signedReply builds replica's reply to (client, seq), correctly MACed
// unless forged.
func signedReply(cfg config.Config, replica, client uint32, seq uint64, result []byte, forged bool) *message.Reply {
	rep := &message.Reply{Replica: replica, Client: client, Seq: seq, Result: result}
	rep.MAC = rep.MACUnder(crypto.NewKeyStore(replica, crypto.NewKeyFromSeed(cfg.KeySeed)).KeyFor(client))
	if forged {
		rep.MAC[0] ^= 1
	}
	return rep
}

// invokeMuted starts one Invoke against replicas that never answer and
// returns once it is pending; the test plays the replicas by calling
// onMessage, so no reply is in flight that it did not send itself.
func invokeMuted(t *testing.T, timeout time.Duration) (config.Config, *Client, <-chan []byte) {
	t.Helper()
	cfg, net, replicas := setup(t)
	for _, r := range replicas {
		r.mute = true
	}
	cl := newClient(t, cfg, net, timeout)
	done := make(chan []byte, 1) // closed without a result if the Invoke fails
	go func() {
		defer close(done)
		if res, err := cl.Invoke([]byte("op"), false); err == nil {
			done <- res
		}
	}()
	waitUntil(t, "the request is pending", func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return len(cl.pend) == 1
	})
	return cfg, cl, done
}

// A reply nobody waits for — the third of every request — is dropped
// before any cryptography: with the key store removed, touching it
// would be a nil dereference.
func TestReplyWithoutPendingRequestSkipsKeyStore(t *testing.T) {
	cfg, cl, done := invokeMuted(t, 10*time.Second)
	cl.onMessage(1, signedReply(cfg, 1, cl.id, 1, []byte("ok"), false))
	cl.onMessage(2, signedReply(cfg, 2, cl.id, 1, []byte("ok"), false))
	if res := <-done; string(res) != "ok" {
		t.Fatalf("Invoke = %q", res)
	}
	cl.ks = nil
	cl.onMessage(0, signedReply(cfg, 0, cl.id, 1, []byte("ok"), false))  // decided and gone
	cl.onMessage(0, signedReply(cfg, 0, cl.id, 99, []byte("ok"), false)) // never issued
}

// The look-before-hashing short-cut must not weaken the check for
// replies that are waited for: forged MACs never count towards f+1.
func TestForgedReplyForPendingRequestRejected(t *testing.T) {
	cfg, cl, done := invokeMuted(t, 10*time.Second)
	for replica := uint32(0); replica < uint32(cfg.N); replica++ {
		cl.onMessage(replica, signedReply(cfg, replica, cl.id, 1, []byte("forged"), true))
	}
	select {
	case res := <-done:
		t.Fatalf("Invoke returned %q on forged replies alone", res)
	case <-time.After(50 * time.Millisecond):
	}
	for replica := uint32(1); replica < uint32(cfg.N); replica++ {
		cl.onMessage(replica, signedReply(cfg, replica, cl.id, 1, []byte("ok"), false))
	}
	if res := <-done; string(res) != "ok" {
		t.Fatalf("Invoke = %q, want the authentic result", res)
	}
}

// freeRecords returns the client's recycled pending records.
func (c *Client) freeRecords() []*pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*pending(nil), c.free...)
}

// A request's record serves the next request once it has left c.pend
// and been cleared, so a late reply for request k — the surplus every
// request draws — never counts toward request k+1 in k's record. The
// results are empty, as on the 0 B workloads: a stale slot left in
// place would match.
func TestLateReplyNeverCountsForNextRequest(t *testing.T) {
	cfg, cl, done := invokeMuted(t, 10*time.Second)
	cl.onMessage(0, signedReply(cfg, 0, cl.id, 1, nil, false))
	cl.onMessage(1, signedReply(cfg, 1, cl.id, 1, nil, false))
	if res, ok := <-done; !ok || len(res) != 0 {
		t.Fatalf("request 1 = %q, %v; want the empty result", res, ok)
	}
	free := cl.freeRecords()
	if len(free) != 1 {
		t.Fatalf("%d records free after request 1, want 1", len(free))
	}

	done2 := make(chan error, 1)
	go func() {
		_, err := cl.Invoke([]byte("op"), false)
		done2 <- err
	}()
	waitUntil(t, "request 2 is pending", func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.pend[2] != nil
	})
	cl.mu.Lock()
	reused := cl.pend[2] == free[0]
	cl.mu.Unlock()
	if !reused {
		t.Fatal("request 2 did not reuse request 1's record")
	}
	cl.onMessage(2, signedReply(cfg, 2, cl.id, 1, nil, false)) // late, for request 1
	cl.onMessage(2, signedReply(cfg, 2, cl.id, 2, nil, false))
	select {
	case err := <-done2:
		t.Fatalf("request 2 returned (%v) on one reply of its own", err)
	case <-time.After(50 * time.Millisecond):
	}
	cl.onMessage(0, signedReply(cfg, 0, cl.id, 2, nil, false))
	if err := <-done2; err != nil {
		t.Fatalf("request 2: %v", err)
	}
}

// Close during an Invoke fails it with ErrClosed and retires its record
// for good: Close closed the record's channel, so it may never serve
// another request.
func TestCloseDuringInvokeRetiresRecord(t *testing.T) {
	_, cl, done := invokeMuted(t, 10*time.Second)
	cl.Close()
	if res, ok := <-done; ok {
		t.Fatalf("Invoke returned %q after Close", res)
	}
	if n := len(cl.freeRecords()); n != 0 {
		t.Fatalf("%d records recycled after Close, want 0", n)
	}
	if _, err := cl.Invoke(nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke after Close = %v, want ErrClosed", err)
	}
}

// Over TCP a replica can answer a client only on a connection the
// client opened and identified itself on. Every freshly dialed
// connection therefore starts with the ID-announcing frame: the
// replicas a first request was not addressed to can reply to it at
// once, and the request completes without a retransmission. (The
// heartbeat that would announce the client eventually is pushed out of
// the test's reach.)
func TestTCPFirstInvokeNeedsNoRetransmission(t *testing.T) {
	cfg := config.Default(config.HybsterX)
	opts := transport.TCPOptions{HeartbeatInterval: time.Hour, BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	eps := make([]*transport.TCPEndpoint, cfg.N)
	addrs := make(map[uint32]string, cfg.N)
	for i := range eps {
		ep, err := transport.NewTCPWithOptions(uint32(i), "127.0.0.1:0", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i], addrs[uint32(i)] = ep, ep.Addr()
	}
	replicas := make([]*fakeReplica, cfg.N)
	for i, ep := range eps {
		for id, addr := range addrs {
			if id != uint32(i) {
				ep.AddPeer(id, addr)
			}
		}
		replicas[i] = newFakeReplicaOn(ep, cfg)
		replicas[i].relay = cfg.N
	}

	const id = crypto.ClientIDBase + 7
	cep, err := transport.NewTCPWithOptions(id, "127.0.0.1:0", addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 2 * time.Second
	cl, err := New(Options{Config: cfg, ID: id, Endpoint: cep, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The client has sent nothing yet; its connections alone must give
	// every replica a way to reach it.
	probe := &message.Reply{Client: id} // no such request: the client drops it
	for i, ep := range eps {
		probe.Replica = uint32(i)
		waitUntil(t, "every replica has a reply path to the client", func() bool {
			return ep.Send(id, probe) == nil
		})
	}

	start := time.Now()
	if _, err := cl.Invoke([]byte("first"), false); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > timeout/4 {
		t.Fatalf("first request took %v of a %v client timeout", elapsed, timeout)
	}
	if seen := [3]int{replicas[0].seenFromClients(), replicas[1].seenFromClients(), replicas[2].seenFromClients()}; seen != [3]int{1, 0, 0} {
		t.Fatalf("client sends seen per replica = %v, want one direct send and no retransmission", seen)
	}
}

// One Invoke against an answering group: ns/op is dominated by the
// fake replicas, allocs/op is the pin — a timer, channel or map per
// request creeping back into the wait path shows here.
func BenchmarkHotPathInvoke(b *testing.B) {
	cfg, net, _ := setupRelaying(b)
	cl := newClient(b, cfg, net, 10*time.Second)
	payload := []byte("hot-path-benchmark-payload")
	if _, err := cl.Invoke(payload, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke(payload, false); err != nil {
			b.Fatal(err)
		}
	}
}
