package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/config"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// proposeFunc hands one batch to the pillar that certifies and
// multicasts it as this replica's proposal for (view, order). A nil
// batch is a no-op proposal. The sequencer calls it directly, outside
// its lock.
type proposeFunc func(pillar uint32, view timeline.View, order timeline.Order, batch []*message.Request)

// Sequencer admits client requests and assigns order numbers to the
// proposals this replica is responsible for. Without rotation the
// leader proposes every order number and followers forward requests to
// it; with rotation every replica proposes the requests it receives,
// using the order numbers of its rotation slot (§6.2).
//
// The admission path is built for many concurrent producers: requests
// arrive on every client's transport goroutine and commit-credits
// return from the execution stage and every pillar. In-flight
// accounting is atomic (credits never take the queue lock), the queue
// lock scopes only the append and the O(1) batch cut, and the dispatch
// loop is single-flighted through pumpGate so concurrent callers hand
// off instead of piling up on the mutex re-running the same scan.
//
// Flow control is one budget per proposer, whatever its pillar count:
// the pillars certify instances in parallel, but a partial batch waits
// while any of this replica's instances is in flight, so P pillars cut
// one closed-loop population into batches as large as one pillar does.
type Sequencer struct {
	cfg     config.Config
	id      uint32
	view    func() timeline.View
	ep      transport.Endpoint
	propose proposeFunc
	noops   *telemetry.Counter

	mu    sync.Mutex
	queue []*message.Request
	next  timeline.Order // next order number to propose from our slot

	// inFlight counts own proposals awaiting their credit, over all
	// pillars. Credits are returned without touching mu.
	inFlight atomic.Int32

	// pumpGate single-flights the dispatch loop: 0 = idle, 1 = a pump
	// is running, 2 = a pump is running and must re-scan before exiting
	// (work arrived while it ran).
	pumpGate atomic.Int32

	// outReqs counts requests dispatched but not yet returned by a
	// credit: the closed-loop population currently inside the pipeline
	// (the seq_outreqs gauge).
	outReqs atomic.Int64
	// holdArmed marks a partial batch parked behind holdTimer (under mu).
	holdArmed bool
	holdTimer *time.Timer
	// flushNow, set by the timer, makes the next dispatch flush a
	// partial batch unconditionally; it bounds how long a hold can defer
	// a request and is what keeps the hold deadlock-free.
	flushNow atomic.Bool
}

// maxInFlight bounds un-credited own proposals over all pillars;
// beyond it requests accumulate in the queue, which is what makes
// batches grow under load. Only full batches ever reach it: a partial
// one waits for the instances in flight (DESIGN.md §14 has the
// measurements that chose the value).
const maxInFlight = 8

// batchHold is the longest a partial batch may wait for the credit of
// an instance in flight. A proposer that commits quickly (partitioned
// HybsterX pillars turn an instance around in well under a millisecond)
// would otherwise flush tiny batches on every credit and burn the
// saved time on per-instance protocol work.
const batchHold = 2 * time.Millisecond

// newSequencer builds the sequencer of replica id. view reads the
// replica's current stable view; propose receives every batch cut.
func newSequencer(cfg config.Config, id uint32, view func() timeline.View,
	ep transport.Endpoint, met Metrics, propose proposeFunc) *Sequencer {

	s := &Sequencer{
		cfg: cfg, id: id, view: view, ep: ep, propose: propose,
		noops: met.Counter("noop_proposals_total", "no-op proposals filling execution gaps"),
	}
	s.next = s.slotAfter(0, 0)
	s.holdTimer = time.AfterFunc(batchHold, s.flushHeld)
	s.holdTimer.Stop()
	met.GaugeFunc("seq_inflight", "proposals awaiting commit credit",
		func() float64 { return float64(s.inFlight.Load()) })
	met.GaugeFunc("seq_outreqs", "requests dispatched but not yet credited back",
		func() float64 { return float64(s.outReqs.Load()) })
	met.GaugeFunc("seq_queue_depth", "admitted requests awaiting a batch cut",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.queue))
		})
	return s
}

// relays reports whether this replica proposes nothing in view v and
// forwards requests to the leader instead.
func (s *Sequencer) relays(v timeline.View) bool {
	return !s.cfg.RotateLeader && s.cfg.LeaderOf(v) != s.id
}

// slotAfter returns the smallest order > after that this replica
// proposes in view v. Without rotation a non-leader proposes nothing;
// the returned cursor is then a placeholder that ResetForView fixes on
// the next leadership change.
func (s *Sequencer) slotAfter(v timeline.View, after timeline.Order) timeline.Order {
	o := after + 1
	if s.relays(v) {
		return o
	}
	for s.cfg.ProposerOf(v, o) != s.id {
		o++
	}
	return o
}

// flushHeld is the hold timer's callback: release the parked partial
// batch on the next dispatch.
func (s *Sequencer) flushHeld() {
	s.mu.Lock()
	s.holdArmed = false
	s.mu.Unlock()
	s.flushNow.Store(true)
	s.pump()
}

// admit queues a request whose client authenticator has already been
// checked, or relays it when this replica is not a proposer.
func (s *Sequencer) admit(r *message.Request) {
	if v := s.view(); s.relays(v) {
		// Followers relay to the leader; the client's own timeout
		// multicast already reaches it in the common case, so relaying
		// is best effort.
		_ = s.ep.Send(s.cfg.LeaderOf(v), r)
		return
	}
	s.mu.Lock()
	s.queue = append(s.queue, r)
	s.mu.Unlock()
	s.pump()
}

// pump schedules the dispatch loop, single-flighted: whichever caller
// wins the gate scans the queue; losers just mark it dirty and return.
// Admitting transport goroutines and credits therefore never queue up
// on the mutex behind a dispatch already in progress.
func (s *Sequencer) pump() {
	for {
		if s.pumpGate.CompareAndSwap(0, 1) {
			for {
				s.dispatch()
				if s.pumpGate.CompareAndSwap(1, 0) {
					return
				}
				// Marked dirty while we dispatched: clear and re-scan.
				s.pumpGate.Store(1)
			}
		}
		if s.pumpGate.CompareAndSwap(1, 2) || s.pumpGate.Load() == 2 {
			return // the running pump will re-scan
		}
		// The pump exited between our checks; try to take the gate.
	}
}

// dispatch proposes as many batches as in-flight credits allow. The
// queue lock scopes only the batch cut — an O(1) reslice — and is
// never held across the pillar hand-off.
func (s *Sequencer) dispatch() {
	v := s.view()
	if s.relays(v) {
		// Not a proposer in this view (e.g. demoted by a view change):
		// relay anything still queued to the new leader.
		s.mu.Lock()
		queued := s.queue
		s.queue = nil
		s.mu.Unlock()
		for _, r := range queued {
			_ = s.ep.Send(s.cfg.LeaderOf(v), r)
		}
		return
	}
	for {
		s.mu.Lock()
		n := len(s.queue)
		if n == 0 {
			s.mu.Unlock()
			return
		}
		busy := s.inFlight.Load()
		if busy >= maxInFlight {
			s.mu.Unlock()
			return
		}
		if n < s.cfg.BatchSize && busy > 0 && !s.flushNow.Load() {
			// Hold the partial batch so it fills instead of fragmenting:
			// one of this proposer's instances is in flight, on whichever
			// pillar, and its credit usually flushes us well before the
			// timer with the requests that arrived meanwhile. With
			// nothing in flight no request is inside the pipeline either,
			// so a lone client dispatches at once and never waits on the
			// timer. Liveness never depends on the credit returning —
			// under faults an in-flight instance can stall indefinitely
			// (quorum loss, lost prepare), so the timer's unconditional
			// flush is armed on every hold and bounds the wait at
			// batchHold.
			if !s.holdArmed {
				s.holdArmed = true
				s.holdTimer.Reset(batchHold)
			}
			s.mu.Unlock()
			return
		}
		s.flushNow.Store(false)
		var batch []*message.Request
		if n <= s.cfg.BatchSize {
			batch = s.queue
			s.queue = nil
		} else {
			n = s.cfg.BatchSize
			// Cut with a capped reslice: the batch keeps the head of the
			// backing array, the queue continues on the tail, and later
			// appends cannot reach into the batch.
			batch = s.queue[:n:n]
			s.queue = s.queue[n:]
		}
		o := s.next
		s.next = s.slotAfter(v, o)
		s.inFlight.Add(1)
		s.outReqs.Add(int64(len(batch)))
		if s.holdArmed {
			s.holdArmed = false
			s.holdTimer.Stop()
		}
		s.mu.Unlock()

		s.propose(s.cfg.PillarOf(o), v, o, batch)
	}
}

// Credit returns one of the proposer's in-flight slots, subtracts the
// instance's reqs from the outstanding population, and pumps the queue.
// The execution stage calls it when it dequeues an own instance, not
// when the instance commits: dispatch is thereby paced by the shared
// execution stage — the real bottleneck — so fast-committing
// partitioned pillars accumulate full batches instead of flushing on
// every quick commit. Pillars call it for proposals they drop.
//
// It is lock-free: credits never contend with admission on the queue
// mutex. Both decrements clamp at zero — after a view reset, credits
// for dropped proposals may arrive late and must not underflow.
func (s *Sequencer) Credit(reqs int) {
	for {
		v := s.inFlight.Load()
		if v <= 0 || s.inFlight.CompareAndSwap(v, v-1) {
			break
		}
	}
	for {
		v := s.outReqs.Load()
		nv := v - int64(reqs)
		if nv < 0 {
			nv = 0
		}
		if v <= 0 || s.outReqs.CompareAndSwap(v, nv) {
			break
		}
	}
	s.pump()
}

// ProposeNoop issues an empty proposal for order o if it belongs to
// this replica in view v; used to close execution gaps (§5.3.1).
func (s *Sequencer) ProposeNoop(v timeline.View, o timeline.Order) {
	if s.cfg.ProposerOf(v, o) != s.id {
		return
	}
	s.mu.Lock()
	if o < s.next {
		s.mu.Unlock()
		return // already proposed (or will be covered by the queue)
	}
	// Skip the slot cursor past o so regular proposals continue after
	// the no-op.
	for s.next <= o {
		s.next = s.slotAfter(v, s.next)
	}
	s.mu.Unlock()
	s.noops.Inc()
	s.propose(s.cfg.PillarOf(o), v, o, nil)
}

// ResetForView realigns the proposal cursor after a view change: the
// replica's first slot after the re-proposed range. In-flight
// accounting restarts at zero; stragglers crediting dropped proposals
// are absorbed by Credit's clamp.
func (s *Sequencer) ResetForView(v timeline.View, after timeline.Order) {
	s.mu.Lock()
	s.next = s.slotAfter(v, after)
	s.inFlight.Store(0)
	s.outReqs.Store(0)
	s.mu.Unlock()
	s.pump()
}
