package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
)

// hostHarness is a started Host of replica 0 (the leader of view 0)
// whose protocol is a pair of recording handlers: requests go to the
// sequencer, PREPAREs (request-bearing, so verified) and COMMITs
// (pass-through) to the pillar of their order, VIEW-CHANGEs and — like
// MinBFT's proposals — MinPrepares to the coordinator. The pillar
// credits every proposal straight back, as if it committed at once.
type hostHarness struct {
	*Host
	ep *fakeEndpoint
	// discard makes the handlers record nothing (benchmarks).
	discard bool

	mu       sync.Mutex
	pillar   []InMsg
	coord    []InMsg
	proposed []*message.Request
	closed   []bool
}

func newHostHarness(t testing.TB) *hostHarness {
	t.Helper()
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = time.Hour // no ticks
	h := &hostHarness{ep: &fakeEndpoint{}}
	record := func(into *[]InMsg) func(ev any) {
		return func(ev any) {
			if in, ok := ev.(InMsg); ok && !h.discard {
				h.mu.Lock()
				*into = append(*into, in)
				h.mu.Unlock()
			}
		}
	}
	pillar := record(&h.pillar)
	opts := Options{Config: cfg, Endpoint: h.ep, Telemetry: telemetry.NewFor("test", 0)}
	host, err := NewHost("test", opts, statemachine.NewExecutor(&logApp{}), Handlers{
		Classify: func(m message.Message) Route {
			switch v := m.(type) {
			case *message.Request:
				return Route{To: ToSequencer, Verify: []*message.Request{v}}
			case *message.Prepare:
				return Route{To: ToPillar, Order: v.Order, Verify: v.Requests}
			case *message.Commit:
				return Route{To: ToPillar, Order: v.Order}
			case *message.MinPrepare:
				return Route{To: ToCoord, Verify: v.Requests}
			case *message.ViewChange:
				return Route{To: ToCoord}
			}
			return Route{}
		},
		Pillar: func(_ uint32, ev any) {
			if p, ok := ev.(Propose); ok {
				if !h.discard {
					h.mu.Lock()
					h.proposed = append(h.proposed, p.Batch...)
					h.mu.Unlock()
				}
				h.Seq.Credit(len(p.Batch))
			}
			pillar(ev)
		},
		Coord: record(&h.coord),
		Close: func(graceful bool) { h.closed = append(h.closed, graceful) },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Host = host
	h.Start()
	t.Cleanup(h.Stop)
	return h
}

// authentic builds a one-request batch with a valid (or forged) client
// authenticator for the harness's group.
func (h *hostHarness) authentic(seq uint64, valid bool) []*message.Request {
	reqs := h.batch(seq, 1)
	if !valid {
		reqs[0].Auth.MACs[h.ID()][0] ^= 1
	}
	return reqs
}

// batch builds n authentic requests with sequence numbers from seq on.
func (h *hostHarness) batch(seq uint64, n int) []*message.Request {
	keys := crypto.NewKeyStore(crypto.ClientIDBase, crypto.NewKeyFromSeed(h.Cfg.KeySeed))
	reqs := make([]*message.Request, n)
	for i := range reqs {
		r := &message.Request{Client: crypto.ClientIDBase, Seq: seq + uint64(i)}
		r.Auth = crypto.NewAuthenticator(keys, r.Digest(), h.Cfg.N)
		reqs[i] = r
	}
	return reqs
}

// received waits until box holds n messages and returns them.
func (h *hostHarness) received(t *testing.T, box *[]InMsg, n int) []InMsg {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		h.mu.Lock()
		got := append([]InMsg(nil), *box...)
		h.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d messages, want %d", len(got), n)
		}
	}
}

func TestHostKeepsSenderOrderAcrossVerifiedAndPassThrough(t *testing.T) {
	h := newHostHarness(t)
	const n = 400
	for o := timeline.Order(1); o <= n; o++ {
		if o%2 == 1 {
			h.ep.deliver(1, &message.Prepare{Order: o, Requests: h.authentic(uint64(o), true)})
		} else {
			h.ep.deliver(1, &message.Commit{Order: o})
		}
	}
	for i, in := range h.received(t, &h.pillar, n) {
		want := timeline.Order(i + 1)
		switch m := in.Msg.(type) {
		case *message.Prepare:
			if m.Order != want || !in.Verified || in.From != 1 {
				t.Fatalf("event %d: PREPARE %d verified=%v from=%d", i, m.Order, in.Verified, in.From)
			}
		case *message.Commit:
			if m.Order != want || in.Verified {
				t.Fatalf("event %d: COMMIT %d verified=%v", i, m.Order, in.Verified)
			}
		}
	}
}

func TestHostForgedBatchReachesCoordinatorOnly(t *testing.T) {
	h := newHostHarness(t)
	h.ep.deliver(1, &message.Prepare{Order: 1, Requests: h.authentic(1, false)})
	h.ep.deliver(1, &message.MinPrepare{Requests: h.authentic(2, false)})
	h.ep.deliver(1, &message.MinPrepare{Requests: h.authentic(3, true)})
	h.ep.deliver(1, &message.NewView{}) // unclassified: dropped
	h.ep.deliver(1, &message.ViewChange{})
	h.ep.deliver(1, &message.Commit{Order: 2})
	// The sender's stream is ordered, so once the trailing messages are
	// in, everything before them has been routed.
	coord := h.received(t, &h.coord, 3)
	if len(coord) != 3 || coord[0].Verified || !coord[1].Verified || coord[2].Verified {
		t.Fatalf("coordinator got %+v", coord)
	}
	pillar := h.received(t, &h.pillar, 1)
	if _, ok := pillar[0].Msg.(*message.Commit); len(pillar) != 1 || !ok {
		t.Fatalf("pillar got %+v, want only the COMMIT", pillar)
	}
}

func TestHostStopIsIdempotentAndLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHostHarness(t)
	h.ep.deliver(1, &message.Prepare{Order: 1, Requests: h.authentic(1, true)})
	h.received(t, &h.pillar, 1)
	h.Stop()
	h.Kill()
	h.Stop()
	if len(h.closed) != 1 || !h.closed[0] {
		t.Fatalf("close hook calls %v, want one graceful", h.closed)
	}
	if h.Healthz() == nil {
		t.Fatal("stopped host reports live")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Stop:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestHostForgedRequestIsNeverAdmitted(t *testing.T) {
	h := newHostHarness(t)
	h.ep.deliver(crypto.ClientIDBase, h.authentic(1, false)[0])
	// route ran on this goroutine: whatever it did is done.
	h.Seq.mu.Lock()
	queued := len(h.Seq.queue)
	h.Seq.mu.Unlock()
	if queued != 0 || h.Seq.outReqs.Load() != 0 {
		t.Fatalf("forged request admitted: %d queued, %d dispatched", queued, h.Seq.outReqs.Load())
	}
	if h.rejected.Value() != 1 || h.verified.Value() != 0 {
		t.Fatalf("rejected_total=%d verified_total=%d, want 1 and 0", h.rejected.Value(), h.verified.Value())
	}
	if h.Stalled() != 0 {
		t.Fatal("forged request noted as pending work")
	}

	// The same request with its authenticator intact goes through.
	genuine := h.authentic(1, true)[0]
	h.ep.deliver(crypto.ClientIDBase, genuine)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		h.mu.Lock()
		proposed := append([]*message.Request(nil), h.proposed...)
		h.mu.Unlock()
		if len(proposed) == 1 && proposed[0] == genuine {
			break
		}
		if len(proposed) > 1 || time.Now().After(deadline) {
			t.Fatalf("proposed %v, want only the genuine request", proposed)
		}
	}
	if h.rejected.Value() != 1 || h.verified.Value() != 1 || h.Stalled() == 0 {
		t.Fatalf("after the genuine request: rejected_total=%d verified_total=%d stalled=%v",
			h.rejected.Value(), h.verified.Value(), h.Stalled())
	}
}

// TestHostRouteConcurrentSenders plays eight links delivering at once,
// the way the transports call route: each sender's interleaved
// PREPAREs and COMMITs must reach the mailbox in that sender's order,
// whatever the other senders do.
func TestHostRouteConcurrentSenders(t *testing.T) {
	h := newHostHarness(t)
	const senders, each = 8, 200
	var wg sync.WaitGroup
	for s := uint32(1); s <= senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := timeline.Order(1); o <= each; o++ {
				if o%2 == 1 {
					h.ep.deliver(s, &message.Prepare{Order: o, Requests: h.authentic(uint64(o), true)})
				} else {
					h.ep.deliver(s, &message.Commit{Order: o})
				}
			}
		}()
	}
	wg.Wait()
	last := make(map[uint32]timeline.Order)
	for i, in := range h.received(t, &h.pillar, senders*each) {
		var o timeline.Order
		switch m := in.Msg.(type) {
		case *message.Prepare:
			o = m.Order
			if !in.Verified {
				t.Fatalf("event %d: PREPARE %d from %d delivered unverified", i, o, in.From)
			}
		case *message.Commit:
			o = m.Order
		}
		if o != last[in.From]+1 {
			t.Fatalf("event %d: sender %d delivered order %d after %d", i, in.From, o, last[in.From])
		}
		last[in.From] = o
	}
	if got := h.verified.Value(); got != senders*each/2 {
		t.Fatalf("verified_total=%d, want %d", got, senders*each/2)
	}
}
