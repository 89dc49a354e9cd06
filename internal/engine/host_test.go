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
	"hybster/internal/timeline"
)

// hostHarness is a started Host of replica 0 whose protocol is a pair
// of recording handlers: PREPAREs (request-bearing, so verified) and
// COMMITs (pass-through) go to the pillar of their order, VIEW-CHANGEs
// and — like MinBFT's proposals — MinPrepares to the coordinator.
type hostHarness struct {
	*Host
	ep *fakeEndpoint

	mu     sync.Mutex
	pillar []InMsg
	coord  []InMsg
	closed []bool
}

func newHostHarness(t *testing.T) *hostHarness {
	t.Helper()
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = time.Hour // no ticks
	h := &hostHarness{ep: &fakeEndpoint{}}
	record := func(into *[]InMsg) func(ev any) {
		return func(ev any) {
			if in, ok := ev.(InMsg); ok {
				h.mu.Lock()
				*into = append(*into, in)
				h.mu.Unlock()
			}
		}
	}
	pillar := record(&h.pillar)
	h.Host = NewHost("test", Options{Config: cfg, Endpoint: h.ep}, statemachine.NewExecutor(&logApp{}), Handlers{
		Classify: func(m message.Message) Route {
			switch v := m.(type) {
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
		Pillar: func(_ uint32, ev any) { pillar(ev) },
		Coord:  record(&h.coord),
		Close:  func(graceful bool) { h.closed = append(h.closed, graceful) },
	})
	h.Start()
	t.Cleanup(h.Stop)
	return h
}

// authentic builds a one-request batch with a valid (or forged) client
// authenticator for the harness's group.
func (h *hostHarness) authentic(seq uint64, valid bool) []*message.Request {
	r := &message.Request{Client: crypto.ClientIDBase, Seq: seq}
	keys := crypto.NewKeyStore(r.Client, crypto.NewKeyFromSeed(h.Cfg.KeySeed))
	r.Auth = crypto.NewAuthenticator(keys, r.Digest(), h.Cfg.N)
	if !valid {
		r.Auth.MACs[h.ID()][0] ^= 1
	}
	return []*message.Request{r}
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
