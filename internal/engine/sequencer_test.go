package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// proposal is one recorded call of the sequencer's propose func.
type proposal struct {
	pillar uint32
	view   timeline.View
	order  timeline.Order
	batch  []*message.Request
}

// recorder stands in for the pillars: it records every proposal.
type recorder struct {
	mu    sync.Mutex
	props []proposal
}

func (r *recorder) propose(pillar uint32, v timeline.View, o timeline.Order, batch []*message.Request) {
	r.mu.Lock()
	r.props = append(r.props, proposal{pillar, v, o, batch})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []proposal {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]proposal(nil), r.props...)
}

// waitFor polls until n proposals were recorded or the deadline passes.
func (r *recorder) waitFor(n int, deadline time.Duration) []proposal {
	end := time.Now().Add(deadline)
	for {
		if ps := r.snapshot(); len(ps) >= n || time.Now().After(end) {
			return ps
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sentMsg is one message a fakeEndpoint was asked to send.
type sentMsg struct {
	to  uint32
	msg message.Message
}

// fakeEndpoint records sends instead of delivering them, and keeps the
// installed handler so a test can play the network.
type fakeEndpoint struct {
	id      uint32
	mu      sync.Mutex
	sent    []sentMsg
	deliver transport.Handler
}

func (f *fakeEndpoint) ID() uint32                 { return f.id }
func (f *fakeEndpoint) Handle(h transport.Handler) { f.deliver = h }
func (f *fakeEndpoint) Close() error               { return nil }
func (f *fakeEndpoint) Send(to uint32, m message.Message) error {
	f.mu.Lock()
	f.sent = append(f.sent, sentMsg{to, m})
	f.mu.Unlock()
	return nil
}

func (f *fakeEndpoint) sends() []sentMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sentMsg(nil), f.sent...)
}

// seqHarness is a sequencer wired to a recorder, a fake endpoint and a
// settable view — no engine.
type seqHarness struct {
	*Sequencer
	rec  *recorder
	ep   *fakeEndpoint
	view atomic.Uint64
}

func newSeqHarness(id uint32, pillars, batch int, rotate bool) *seqHarness {
	cfg := config.Default(config.HybsterX)
	cfg.Pillars, cfg.BatchSize, cfg.RotateLeader = pillars, batch, rotate
	h := &seqHarness{rec: &recorder{}, ep: &fakeEndpoint{id: id}}
	h.Sequencer = newSequencer(cfg, id, func() timeline.View { return timeline.View(h.view.Load()) },
		h.ep, newMetrics(nil, "test"), h.rec.propose)
	return h
}

func request(seq uint64) *message.Request {
	return &message.Request{Client: crypto.ClientIDBase, Seq: seq}
}

func TestSequencerSlotAssignment(t *testing.T) {
	h := newSeqHarness(1, 2, 16, true)
	// Replica 1 with rotation in view 0 proposes orders ≡ 1 (mod 3).
	o := h.slotAfter(0, 0)
	if h.cfg.ProposerOf(0, o) != 1 {
		t.Fatalf("first slot %d not owned by replica 1", o)
	}
	n := h.slotAfter(0, o)
	if n <= o || h.cfg.ProposerOf(0, n) != 1 {
		t.Fatalf("next slot %d invalid", n)
	}
	if n-o != 3 {
		t.Fatalf("slot stride = %d, want n=3", n-o)
	}
	// Without rotation a follower's cursor is a placeholder.
	f := newSeqHarness(1, 2, 16, false)
	if got := f.slotAfter(0, 7); got != 8 {
		t.Fatalf("follower placeholder = %d, want 8", got)
	}
}

// A lone request finds nothing in flight: it must be proposed before
// admit returns, never parked behind the hold timer.
func TestSequencerLoneRequestDispatchesImmediately(t *testing.T) {
	h := newSeqHarness(0, 1, 16, false)
	h.admit(request(1))
	ps := h.rec.snapshot()
	if len(ps) != 1 || len(ps[0].batch) != 1 || ps[0].order != 1 || ps[0].pillar != 0 {
		t.Fatalf("proposals after one Admit: %+v", ps)
	}
}

// The PR 10 liveness wedge: a partial batch parked by the hold must be
// flushed by the timer even if the credit it would otherwise wait for
// NEVER returns — whether order 2 lands on the pillar of the instance
// in flight or on an idle one. The second case also pins the one
// budget per proposer: a request whose pillar is idle still waits
// while another pillar of the same proposer has an instance in flight,
// instead of leaving as an instance of its own.
func TestSequencerHoldFlushedByTimerWithoutCredit(t *testing.T) {
	cases := []struct {
		name           string
		pillars, batch int
	}{
		// Order 2 targets the pillar that still holds order 1 in flight.
		{"busy pillar", 1, 16},
		// Order 2 targets the idle pillar; order 1 is in flight on the
		// other one.
		{"idle pillar, busy proposer", 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSeqHarness(0, tc.pillars, tc.batch, false)
			h.admit(request(1)) // dispatched at once, never credited
			h.admit(request(2))
			if n := len(h.rec.snapshot()); n != 1 {
				t.Fatalf("partial batch not held: %d proposals right after Admit", n)
			}
			start := time.Now()
			ps := h.rec.waitFor(2, 100*batchHold)
			if len(ps) != 2 {
				t.Fatalf("held batch never flushed without a credit (%d proposals after %v)", len(ps), time.Since(start))
			}
			if ps[1].order != 2 || len(ps[1].batch) != 1 || ps[1].batch[0].Seq != 2 {
				t.Fatalf("flushed proposal: %+v", ps[1])
			}
			if want := h.cfg.PillarOf(2); ps[1].pillar != want || (tc.pillars > 1 && ps[0].pillar == want) {
				t.Fatalf("proposals on pillars %d then %d", ps[0].pillar, ps[1].pillar)
			}
		})
	}
}

// Requests that arrive while one of the proposer's instances is in
// flight join one batch on its credit, though the order they get lands
// on another, idle pillar: P pillars batch like one.
func TestSequencerCreditFlushesHeldRequestsAsOneBatch(t *testing.T) {
	h := newSeqHarness(0, 2, 16, false)
	h.admit(request(1))
	for seq := uint64(2); seq <= 4; seq++ {
		h.admit(request(seq))
	}
	if ps := h.rec.snapshot(); len(ps) != 1 {
		t.Fatalf("%d proposals while order 1 was in flight, want 1: %+v", len(ps), ps)
	}
	h.Credit(1)
	ps := h.rec.snapshot()
	if len(ps) != 2 {
		t.Fatalf("%d proposals after the credit, want 2", len(ps))
	}
	if p := ps[1]; p.order != 2 || p.pillar == ps[0].pillar || len(p.batch) != 3 || p.batch[0].Seq != 2 {
		t.Fatalf("proposal after the credit: order %d on pillar %d (order 1 on %d) with %d requests",
			p.order, p.pillar, ps[0].pillar, len(p.batch))
	}
	if v := h.inFlight.Load(); v != 1 {
		t.Fatalf("inFlight = %d, want 1", v)
	}
}

// saturate marks the proposer as holding its full quota of uncredited
// proposals, so admitted requests pile up in the queue.
func saturate(h *seqHarness) { h.inFlight.Store(maxInFlight) }

func TestSequencerBatchNotAliasedByLaterAppends(t *testing.T) {
	h := newSeqHarness(0, 1, 2, false)
	saturate(h)
	const seq = 1
	for i := 0; i < 5; i++ {
		h.admit(request(seq + uint64(i)))
	}
	if n := len(h.rec.snapshot()); n != 0 {
		t.Fatalf("saturated proposer accepted a proposal: %d", n)
	}
	h.Credit(1) // one slot: the head of the queue is cut off as a batch
	ps := h.rec.snapshot()
	if len(ps) != 1 {
		t.Fatalf("credit dispatched %d batches, want 1", len(ps))
	}
	batch := ps[0].batch
	if len(batch) != 2 || cap(batch) != 2 {
		t.Fatalf("cut batch len=%d cap=%d, want a capped reslice of 2", len(batch), cap(batch))
	}
	first, second := batch[0], batch[1]
	// Later admissions append to the queue's tail; they must not reach
	// into the dispatched batch, and growing the batch must not reach
	// into the queue.
	h.admit(request(100))
	_ = append(batch, request(200))
	if batch[0] != first || batch[1] != second || first.Seq != seq || second.Seq != seq+1 {
		t.Fatal("dispatched batch changed after later appends")
	}
	h.mu.Lock()
	queued := append([]*message.Request(nil), h.queue...)
	h.mu.Unlock()
	want := []uint64{seq + 2, seq + 3, seq + 4, 100}
	if len(queued) != len(want) {
		t.Fatalf("queue holds %d requests, want %d", len(queued), len(want))
	}
	for i, r := range queued {
		if r.Seq != want[i] {
			t.Fatalf("queue[%d].Seq = %d, want %d", i, r.Seq, want[i])
		}
	}
}

func TestSequencerCreditsAfterResetClampAtZero(t *testing.T) {
	h := newSeqHarness(0, 2, 16, true)
	h.admit(request(1))
	h.ResetForView(1, 0)
	// Stragglers crediting proposals the view change dropped.
	for i := 0; i < 6; i++ {
		h.Credit(7)
	}
	if v := h.inFlight.Load(); v != 0 {
		t.Fatalf("inFlight = %d after late credits", v)
	}
	if v := h.outReqs.Load(); v != 0 {
		t.Fatalf("outReqs = %d after late credits", v)
	}
	// Accounting still works afterwards.
	h.view.Store(1)
	h.admit(request(2))
	ps := h.rec.snapshot()
	last := ps[len(ps)-1]
	if last.view != 1 || h.cfg.ProposerOf(1, last.order) != 0 {
		t.Fatalf("post-reset proposal %+v not in this replica's view-1 slot", last)
	}
	if v := h.inFlight.Load(); v != 1 {
		t.Fatalf("inFlight = %d after one dispatch", v)
	}
}

func TestSequencerDemotedProposerRelaysQueue(t *testing.T) {
	h := newSeqHarness(0, 1, 2, false)
	saturate(h)
	const seq = 1
	for i := 0; i < 3; i++ {
		h.admit(request(seq + uint64(i)))
	}
	// A view change installs view 1, led by replica 1.
	h.view.Store(1)
	h.ResetForView(1, 10)
	h.admit(request(seq + 3)) // arrives after the demotion
	if n := len(h.rec.snapshot()); n != 0 {
		t.Fatalf("demoted replica proposed: %d proposals", n)
	}
	sent := h.ep.sends()
	if len(sent) != 4 {
		t.Fatalf("relayed %d requests, want 4", len(sent))
	}
	for i, s := range sent {
		r, ok := s.msg.(*message.Request)
		if s.to != 1 || !ok || r.Seq != seq+uint64(i) {
			t.Fatalf("relay %d: to=%d msg=%+v", i, s.to, s.msg)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.queue) != 0 {
		t.Fatalf("%d requests left in a follower's queue", len(h.queue))
	}
}

// N admitting goroutines against M crediting goroutines: every request
// is proposed exactly once and every order at most once.
func TestSequencerConcurrentAdmitAndCredit(t *testing.T) {
	const (
		admitters = 8
		perAdmit  = 400
		creditors = 4
		total     = admitters * perAdmit
	)
	cfg := config.Default(config.HybsterX)
	cfg.BatchSize = 8
	// Each proposal's request count, buffered for every possible
	// proposal so propose never blocks.
	credits := make(chan int, total)
	var (
		mu     sync.Mutex
		seen   = make(map[uint64]int)
		orders = make(map[timeline.Order]int)
		count  atomic.Int64
	)
	s := newSequencer(cfg, 0, func() timeline.View { return 0 }, &fakeEndpoint{}, newMetrics(nil, "test"),
		func(_ uint32, _ timeline.View, o timeline.Order, batch []*message.Request) {
			mu.Lock()
			orders[o]++
			for _, r := range batch {
				seen[r.Seq]++
			}
			mu.Unlock()
			credits <- len(batch)
			count.Add(int64(len(batch))) // after the send: count == total lets the test close credits
		})

	var cwg sync.WaitGroup
	for i := 0; i < creditors; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for reqs := range credits {
				s.Credit(reqs)
			}
		}()
	}
	var awg sync.WaitGroup
	for a := 0; a < admitters; a++ {
		awg.Add(1)
		go func(a int) {
			defer awg.Done()
			for i := 0; i < perAdmit; i++ {
				s.admit(request(uint64(a*perAdmit + i + 1)))
			}
		}(a)
	}
	awg.Wait()
	for deadline := time.Now().Add(10 * time.Second); count.Load() < total; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests proposed", count.Load(), total)
		}
	}
	// Everything admitted was proposed, so nothing sends on credits now.
	close(credits)
	cwg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Fatalf("%d distinct requests proposed, want %d (lost %d)", len(seen), total, total-len(seen))
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("request %d proposed %d times", seq, n)
		}
	}
	for o, n := range orders {
		if n != 1 {
			t.Fatalf("order %d proposed %d times", o, n)
		}
	}
}
