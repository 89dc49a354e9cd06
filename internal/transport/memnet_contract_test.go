package transport

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/message"
)

// The memnet contract, pinned independently of how links are built.
// Every figure the repository reproduces runs on this fabric, so each
// test is written to fail on a plausible wrong rewrite: a handler or
// destination cached too long, a bound that strands its sender, a loss
// draw that moved. None of them sleeps to let something "settle":
// handlers park the delivering goroutine on a gate, which makes "in
// flight" a state the test holds rather than a window it has to hit.
// On the zero profile an idle link delivers on its sender's goroutine,
// so a test that parks the first delivery makes that send from a
// goroutine of its own: it holds the link's delivery while the test
// goroutine sends the messages that must queue behind it.

// gatedHandler records every delivery and parks the delivering
// goroutine on the first one until the gate is opened.
type gatedHandler struct {
	col     *collector
	entered chan struct{} // closed when the first delivery is parked
	gate    chan struct{} // close to let deliveries proceed
	once    sync.Once
}

func newGatedHandler() *gatedHandler {
	return &gatedHandler{col: newCollector(), entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedHandler) handler(from uint32, m message.Message) {
	g.col.handler(from, m)
	g.once.Do(func() { close(g.entered) })
	<-g.gate
}

func (g *gatedHandler) seqs() []uint64 {
	g.col.mu.Lock()
	defer g.col.mu.Unlock()
	out := make([]uint64, len(g.col.msgs))
	for i, m := range g.col.msgs {
		out[i] = m.(*message.Request).Seq
	}
	return out
}

// Per-link FIFO must hold per sending goroutine when many goroutines
// and several source nodes share links into one destination.
func TestMemnetContractFIFOConcurrentSenders(t *testing.T) {
	const sources, perSource, per = 3, 4, 3000
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	dst := net.Endpoint(100)

	// Handlers of different links run concurrently; next is indexed by
	// (source node, goroutine) and each cell is touched by one link.
	var next [sources][perSource]uint64
	var delivered atomic.Int64
	var misordered atomic.Int64
	done := make(chan struct{})
	dst.Handle(func(from uint32, m message.Message) {
		r := m.(*message.Request)
		g := r.Client // sending goroutine's index on that source
		if r.Seq != next[from][g] {
			misordered.Add(1)
		}
		next[from][g] = r.Seq + 1
		if delivered.Add(1) == sources*perSource*per {
			close(done)
		}
	})

	var wg sync.WaitGroup
	for s := uint32(0); s < sources; s++ {
		ep := net.Endpoint(s)
		for g := uint32(0); g < perSource; g++ {
			wg.Add(1)
			go func(ep Endpoint, g uint32) {
				defer wg.Done()
				for i := uint64(0); i < per; i++ {
					if err := ep.Send(100, &message.Request{Client: g, Seq: i}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(ep, g)
		}
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d of %d", delivered.Load(), sources*perSource*per)
	}
	if n := misordered.Load(); n != 0 {
		t.Fatalf("%d messages overtook an earlier one of their sender", n)
	}
}

// A partition stops new sends; what the link already accepted is in
// flight and is still delivered.
func TestMemnetContractInFlightSurvivesPartition(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	h := newGatedHandler()
	b.Handle(h.handler)

	go func() { _ = a.Send(1, testMsg(1)) }()
	<-h.entered // a sender holds the link's delivery, parked delivering 1
	_ = a.Send(1, testMsg(2))
	_ = a.Send(1, testMsg(3))
	net.Partition(0, 1)
	if err := a.Send(1, testMsg(4)); err != nil {
		t.Fatalf("send into a partition: err = %v, want a silent drop", err)
	}
	close(h.gate)
	h.col.waitFor(t, 3, 5*time.Second) // 2 and 3 arrive while the cut stands
	net.Heal(0, 1)
	_ = a.Send(1, testMsg(5))
	h.col.waitFor(t, 4, 5*time.Second)
	if got, want := h.seqs(), []uint64{1, 2, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v (2 and 3 were in flight, 4 was sent into the cut)", got, want)
	}
}

// Replacing an endpoint models a crash-restart: once Endpoint returns,
// the old handler is never entered again — not even for messages that
// were queued behind the delivery in progress — and later sends reach
// the new handler.
func TestMemnetContractReplacementNeverReachesStaleHandler(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	stale := newGatedHandler()
	net.Endpoint(1).Handle(stale.handler)

	go func() { _ = a.Send(1, testMsg(1)) }()
	<-stale.entered
	_ = a.Send(1, testMsg(2)) // queued behind the parked delivery
	_ = a.Send(1, testMsg(3))

	reached := make(chan struct{})
	net.Endpoint(1).Handle(func(_ uint32, m message.Message) {
		if m.(*message.Request).Seq == 4 {
			close(reached)
		}
	})
	_ = a.Send(1, testMsg(4))
	close(stale.gate)

	// FIFO: once 4 arrived, 2 and 3 have been dealt with, wherever
	// they went.
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("a send after the replacement never reached the new handler")
	}
	if got := stale.seqs(); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("stale handler saw %v, want only the delivery already in progress", got)
	}
}

// Close may race any number of Sends: none panics, all return, and
// from some point on they report ErrClosed.
func TestMemnetContractCloseRacingSend(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	var delivered atomic.Int64
	busy := make(chan struct{})
	net.Endpoint(9).Handle(func(uint32, message.Message) {
		if delivered.Add(1) == 1000 {
			close(busy)
		}
	})
	var wg sync.WaitGroup
	for s := uint32(0); s < 8; s++ {
		ep := net.Endpoint(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				if err := ep.Send(9, testMsg(i)); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("send racing Close: %v", err)
					}
					return
				}
			}
		}()
	}
	<-busy
	net.Close()
	wg.Wait()
}

// A sender blocked at the link bound is backpressure, not a leak: Close
// releases it with ErrClosed.
func TestMemnetContractCloseReleasesBlockedSender(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	a := net.Endpoint(0)
	h := newGatedHandler()
	net.Endpoint(1).Handle(h.handler)
	defer close(h.gate)

	go func() { _ = a.Send(1, testMsg(0)) }()
	<-h.entered // a sender holds the link's delivery, parked delivering 0
	var sent atomic.Int64
	result := make(chan error, 1)
	go func() {
		for i := uint64(1); ; i++ {
			if err := a.Send(1, testMsg(i)); err != nil {
				result <- err
				return
			}
			sent.Add(1)
		}
	}()
	// With the handler parked, the link accepts its bound (plus what
	// its goroutine already took out) and then the sender must block.
	for deadline := time.Now().Add(10 * time.Second); sent.Load() < linkQueueDepth; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("link accepted only %d messages, bound is %d", sent.Load(), linkQueueDepth)
		}
	}
	select {
	case err := <-result:
		t.Fatalf("sender returned %v after %d sends instead of blocking", err, sent.Load())
	case <-time.After(50 * time.Millisecond):
	}
	if n := sent.Load(); n > 2*linkQueueDepth {
		t.Fatalf("link accepted %d messages with its handler parked; bound is %d", n, linkQueueDepth)
	}

	net.Close()
	select {
	case err := <-result:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked sender released with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close stranded a sender blocked at the link bound")
	}
}

// On an idle link of a zero-profile network the handler runs on the
// sender's goroutine: it has run by the time Send returns, for the
// send that creates the link and for every later one.
func TestMemnetContractIdleLinkDeliversInline(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	var delivered atomic.Int64
	net.Endpoint(1).Handle(func(uint32, message.Message) { delivered.Add(1) })
	for i := int64(1); i <= 100; i++ {
		if err := a.Send(1, testMsg(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if got := delivered.Load(); got != i {
			t.Fatalf("send %d returned with %d deliveries made; an idle link delivers before Send returns", i, got)
		}
	}
}

// Handlers that send to each other over idle links cannot deadlock:
// A's handler sends to B, B's handler sends back and A's sends on once
// more, while several goroutines start such chains at once. A Send only
// ever tries a link's delivery lock, so a chain that meets a link held
// up its own stack, or by another chain, queues there. Every message
// arrives, and each hop keeps per-sender FIFO order.
func TestMemnetContractReentrantSendsDoNotDeadlock(t *testing.T) {
	const starters, rounds, hops = 4, 2000, 3
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	ep := [2]Endpoint{net.Endpoint(0), net.Endpoint(1)}

	// A message's Seq is round*hops + hop, its Client the starter. The
	// hop-h message of a chain travels from node h%2 to node 1-h%2; next
	// is touched only by the deliveries of that hop's one link.
	var next [hops][starters]uint64
	var misordered, arrived atomic.Int64
	done := make(chan struct{})
	for node := range ep {
		ep[node].Handle(func(_ uint32, m message.Message) {
			r := m.(*message.Request)
			round, hop := r.Seq/hops, r.Seq%hops
			if round != next[hop][r.Client] {
				misordered.Add(1)
			}
			next[hop][r.Client] = round + 1
			if hop+1 < hops {
				_ = ep[node].Send(uint32(1-node), &message.Request{Client: r.Client, Seq: r.Seq + 1})
				return
			}
			if arrived.Add(1) == starters*rounds {
				close(done)
			}
		})
	}
	for g := uint32(0); g < starters; g++ {
		go func() {
			for i := uint64(0); i < rounds; i++ {
				_ = ep[0].Send(1, &message.Request{Client: g, Seq: i * hops})
			}
		}()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d chains completed: re-entrant sends deadlocked", arrived.Load(), starters*rounds)
	}
	if n := misordered.Load(); n != 0 {
		t.Fatalf("%d messages overtook an earlier one of their sender", n)
	}
}

// A network with a link profile delivers on the link goroutine only:
// Send returns while the handler is parked, and later sends queue
// behind it.
func TestMemnetContractProfiledSendDoesNotWaitForHandler(t *testing.T) {
	net := NewNetwork(LinkProfile{Bandwidth: 1 << 30})
	defer net.Close()
	a := net.Endpoint(0)
	h := newGatedHandler()
	net.Endpoint(1).Handle(h.handler)
	defer close(h.gate)

	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := uint64(1); i <= 3; i++ {
			_ = a.Send(1, testMsg(i))
		}
	}()
	<-h.entered
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("a send on a profiled network waited for its handler")
	}
	if got := h.seqs(); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("delivered %v while the handler was parked, want [1]", got)
	}
}
