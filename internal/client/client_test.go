package client

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/transport"
)

// fakeReplica answers requests with configurable results.
type fakeReplica struct {
	ep     transport.Endpoint
	ks     *crypto.KeyStore
	mu     sync.Mutex
	result func(req *message.Request) []byte
	seen   int // requests received from clients, relayed ones not counted
	mute   bool
	// relay makes the group behave like an ordering one: a request a
	// client addressed to this replica alone is passed on to every
	// other replica, so all n answer it, as after agreement.
	relay int
}

func newFakeReplica(net *transport.Network, id uint32, cfg config.Config) *fakeReplica {
	return newFakeReplicaOn(net.Endpoint(id), cfg)
}

func newFakeReplicaOn(ep transport.Endpoint, cfg config.Config) *fakeReplica {
	f := &fakeReplica{
		ep:     ep,
		ks:     crypto.NewKeyStore(ep.ID(), crypto.NewKeyFromSeed(cfg.KeySeed)),
		result: func(req *message.Request) []byte { return []byte("ok") },
	}
	f.ep.Handle(func(from uint32, m message.Message) {
		req, ok := m.(*message.Request)
		if !ok {
			return
		}
		f.mu.Lock()
		fromClient := from >= crypto.ClientIDBase
		if fromClient {
			f.seen++
		}
		mute := f.mute
		relay := f.relay
		res := f.result(req)
		f.mu.Unlock()
		if fromClient && relay > 0 {
			transport.Multicast(f.ep, relay, req)
		}
		if mute {
			return
		}
		rep := &message.Reply{Replica: f.ep.ID(), Client: req.Client, Seq: req.Seq, Result: res}
		rep.MAC = rep.MACUnder(f.ks.KeyFor(req.Client))
		_ = f.ep.Send(req.Client, rep)
	})
	return f
}

func setup(t testing.TB) (config.Config, *transport.Network, []*fakeReplica) {
	t.Helper()
	cfg := config.Default(config.HybsterX) // n=3, f=1
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	replicas := make([]*fakeReplica, cfg.N)
	for i := range replicas {
		replicas[i] = newFakeReplica(net, uint32(i), cfg)
	}
	return cfg, net, replicas
}

// setupRelaying is setup with replicas that relay: a request sent to
// one replica is answered by all, like by a real group.
func setupRelaying(t testing.TB) (config.Config, *transport.Network, []*fakeReplica) {
	cfg, net, replicas := setup(t)
	for _, r := range replicas {
		r.relay = cfg.N
	}
	return cfg, net, replicas
}

func (f *fakeReplica) seenFromClients() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

func newClient(t testing.TB, cfg config.Config, net *transport.Network, timeout time.Duration) *Client {
	t.Helper()
	cl, err := New(Options{
		Config:   cfg,
		ID:       crypto.ClientIDBase,
		Endpoint: net.Endpoint(crypto.ClientIDBase),
		Timeout:  timeout,
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestInvokeAcceptsFPlus1Matching(t *testing.T) {
	cfg, net, _ := setup(t)
	cl := newClient(t, cfg, net, 200*time.Millisecond)
	res, err := cl.Invoke([]byte("op"), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "ok" {
		t.Fatalf("res = %q", res)
	}
}

func TestInvokeRejectsBelowIDBase(t *testing.T) {
	cfg, net, _ := setup(t)
	_, err := New(Options{Config: cfg, ID: 5, Endpoint: net.Endpoint(5)})
	if err == nil {
		t.Fatal("client with replica-range ID accepted")
	}
}

func TestSingleFaultyReplyDoesNotSatisfy(t *testing.T) {
	cfg, net, replicas := setup(t)
	// Replica 1 lies; replicas 0 and 2 agree → the truthful value wins.
	replicas[1].mu.Lock()
	replicas[1].result = func(req *message.Request) []byte { return []byte("lie") }
	replicas[1].mu.Unlock()

	cl := newClient(t, cfg, net, 200*time.Millisecond)
	res, err := cl.Invoke([]byte("op"), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "ok" {
		t.Fatalf("accepted the faulty reply %q", res)
	}
}

func TestAllRepliesDifferentTimesOut(t *testing.T) {
	cfg, net, replicas := setup(t)
	for i, r := range replicas {
		i := i
		r.mu.Lock()
		r.result = func(req *message.Request) []byte { return []byte{byte(i)} }
		r.mu.Unlock()
	}
	cl := newClient(t, cfg, net, 50*time.Millisecond)
	_, err := cl.Invoke([]byte("op"), false)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestBadReplyMACIgnored(t *testing.T) {
	cfg, net, replicas := setup(t)
	// Replica 2's replies carry its result under a garbage MAC — a
	// forger on its link: they must not count, but 0 + 1 still form f+1.
	replicas[2].ep.Handle(func(from uint32, m message.Message) {
		req, ok := m.(*message.Request)
		if !ok {
			return
		}
		replicas[2].mu.Lock()
		res := replicas[2].result(req)
		replicas[2].mu.Unlock()
		rep := &message.Reply{Replica: 2, Client: req.Client, Seq: req.Seq, Result: res}
		rep.MAC = crypto.MAC{0xde, 0xad}
		_ = replicas[2].ep.Send(req.Client, rep)
	})
	cl := newClient(t, cfg, net, 50*time.Millisecond)
	if res, err := cl.Invoke([]byte("op"), false); err != nil || string(res) != "ok" {
		t.Fatalf("Invoke = %q, %v; want ok", res, err)
	}
	// Replica 1 turns faulty and the forger backs its lie: one authentic
	// reply and one forged one are not f+1.
	for _, r := range replicas[1:] {
		r.mu.Lock()
		r.result = func(*message.Request) []byte { return []byte("lie") }
		r.mu.Unlock()
	}
	if res, err := cl.Invoke([]byte("op"), false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Invoke = %q, %v; want ErrTimeout, the forged reply counted", res, err)
	}
}

func TestRetransmitsWhenPreferredSilent(t *testing.T) {
	cfg, net, replicas := setup(t)
	// The preferred replica (0, fixed leader) never answers; the
	// client must fall back to multicast and still succeed via 1+2.
	replicas[0].mu.Lock()
	replicas[0].mute = true
	replicas[0].mu.Unlock()

	cl := newClient(t, cfg, net, 40*time.Millisecond)
	if _, err := cl.Invoke([]byte("op"), false); err != nil {
		t.Fatal(err)
	}
	// After the failure the client starts subsequent requests with a
	// multicast immediately: replicas 1/2 see request two quickly.
	start := time.Now()
	if _, err := cl.Invoke([]byte("op2"), false); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 35*time.Millisecond {
		t.Fatalf("second request took %v — client did not adapt", elapsed)
	}
}

func TestRequestsCarryIncreasingSeq(t *testing.T) {
	cfg, net, replicas := setup(t)
	var mu sync.Mutex
	var seqs []uint64
	replicas[0].mu.Lock()
	orig := replicas[0].result
	replicas[0].result = func(req *message.Request) []byte {
		mu.Lock()
		seqs = append(seqs, req.Seq)
		mu.Unlock()
		return orig(req)
	}
	replicas[0].mu.Unlock()

	cl := newClient(t, cfg, net, 200*time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke(nil, false); err != nil {
			t.Fatal(err)
		}
	}
	// Retransmissions may repeat a sequence number, but fresh requests
	// must use strictly increasing ones. An Invoke returns on replicas 1
	// and 2, so replica 0 may still be handling the last requests.
	distinct := func() int {
		mu.Lock()
		defer mu.Unlock()
		unique := map[uint64]bool{}
		for _, s := range seqs {
			unique[s] = true
		}
		return len(unique)
	}
	waitUntil(t, "replica 0 saw all five requests", func() bool { return distinct() >= 5 })
	if n := distinct(); n != 5 {
		t.Fatalf("saw %d distinct seqs, want 5", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("seqs went backwards: %v", seqs)
		}
	}
}

func TestRequestAuthenticatorValid(t *testing.T) {
	cfg, net, _ := setup(t)
	got := make(chan *message.Request, 1)
	verifier := net.Endpoint(0)
	verifier.Handle(func(from uint32, m message.Message) {
		if req, ok := m.(*message.Request); ok {
			select {
			case got <- req:
			default:
			}
		}
	})
	cl := newClient(t, cfg, net, 50*time.Millisecond)
	go cl.Invoke([]byte("op"), false) //nolint:errcheck — times out, irrelevant

	select {
	case req := <-got:
		ks := crypto.NewKeyStore(0, crypto.NewKeyFromSeed(cfg.KeySeed))
		if !crypto.VerifyAuthenticator(ks, req.Auth, req.Digest()) {
			t.Fatal("request authenticator invalid at replica")
		}
	case <-time.After(time.Second):
		t.Fatal("no request observed")
	}
}

func TestCloseUnblocksInvoke(t *testing.T) {
	cfg, net, replicas := setup(t)
	for _, r := range replicas {
		r.mu.Lock()
		r.mute = true
		r.mu.Unlock()
	}
	cl := newClient(t, cfg, net, time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Invoke([]byte("op"), false)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Invoke did not unblock on Close")
	}
	if _, err := cl.Invoke(nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("err after close = %v", err)
	}
}

func TestRotationPrefersAssignedProposer(t *testing.T) {
	cfg, net, replicas := setup(t)
	cfg.RotateLeader = true
	cl, err := New(Options{
		Config: cfg, ID: crypto.ClientIDBase + 1,
		Endpoint: net.Endpoint(crypto.ClientIDBase + 1), Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The first attempt must reach only the assigned proposer; the
	// eventual multicast (needed for the f+1 quorum) comes later.
	want := uint32((crypto.ClientIDBase + 1) % 3)
	go cl.Invoke([]byte("op"), false) //nolint:errcheck — inspected below
	time.Sleep(50 * time.Millisecond)
	for i, r := range replicas {
		r.mu.Lock()
		seen := r.seen
		r.mu.Unlock()
		if uint32(i) == want && seen == 0 {
			t.Fatalf("assigned proposer %d never saw the request", want)
		}
		if uint32(i) != want && seen != 0 {
			t.Fatalf("replica %d saw a direct request meant for %d", i, want)
		}
	}
}
