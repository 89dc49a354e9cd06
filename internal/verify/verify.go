// Package verify provides an off-pillar parallel verification stage
// for client request authenticators.
//
// In the paper's consensus-oriented parallelization the pillars are the
// scarce resource: everything a pillar executes serializes its
// order-number class. Client-authenticator checks are
// embarrassingly parallel (one MAC per request, no protocol state), so
// this stage lifts them out of the pillar event loops into a small
// worker pool that runs between the transport and the pillar mailboxes.
// Events enter a mailbox already carrying a verified bit; pillars keep
// their sequential re-check as a fallback for events that bypassed the
// stage (direct enqueues, tests, engines running without a pool).
//
// Rejection happens before the mailbox: a batch containing a forged
// authenticator never reaches a pillar at all, which also moves the
// attacker-induced work of a corruption flood off the protocol's
// critical path.
package verify

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/telemetry"
)

// task is one submitted batch with its completion callback.
type task struct {
	reqs []*message.Request
	done func(ok bool)
}

// Pool verifies request batches on worker goroutines. Submission order
// between batches is not preserved — workers race, so completions may
// come back reordered. The engines' inbound paths must not observe
// that (per-sender delivery order is a protocol invariant); they front
// the pool with Ordered, which restores submission order at delivery.
type Pool struct {
	ks    *crypto.KeyStore
	tasks chan task
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	depth atomic.Int64

	// nil-safe metric handles (telemetry off = zero instrumentation).
	verified *telemetry.Counter
	rejected *telemetry.Counter
	latency  *telemetry.Histogram
}

// queueDepth bounds the submission channel; a full queue applies
// backpressure to the transport goroutine, like the pillar mailboxes'
// unbounded growth never would.
const queueDepth = 1024

// NewPool starts a pool verifying against ks, its worker count sized
// to leave the pillars their cores. Telemetry may be nil.
func NewPool(ks *crypto.KeyStore, tel *telemetry.Telemetry) *Pool {
	workers := min(max(runtime.GOMAXPROCS(0)/2, 2), 8)
	p := &Pool{
		ks:    ks,
		tasks: make(chan task, queueDepth),
		done:  make(chan struct{}),
	}
	if tel != nil {
		p.verified = tel.Counter("hybster_verify_verified_total", "request authenticators verified by the parallel stage")
		p.rejected = tel.Counter("hybster_verify_rejected_total", "request batches rejected by the parallel stage")
		p.latency = tel.Histogram("hybster_verify_latency_ns", "submit-to-verdict latency of the parallel verify stage")
		tel.GaugeFunc("hybster_verify_queue_depth", "request batches queued for parallel verification",
			func() float64 { return float64(p.depth.Load()) })
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit queues reqs for verification; done is invoked exactly once on
// a worker goroutine with the verdict. After Close (or when the queue
// is saturated at shutdown) the batch is verified synchronously on the
// caller's goroutine, so no submission is ever silently lost.
func (p *Pool) Submit(reqs []*message.Request, done func(ok bool)) {
	t := task{reqs: reqs, done: done}
	p.depth.Add(1)
	if p.latency != nil {
		start := time.Now()
		inner := done
		t.done = func(ok bool) {
			p.latency.ObserveDuration(time.Since(start))
			inner(ok)
		}
	}
	select {
	case p.tasks <- t:
	case <-p.done:
		p.run(t)
	}
}

// Close stops the workers. Queued tasks are drained (verified inline by
// the draining worker), not dropped.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.tasks:
			p.run(t)
		case <-p.done:
			// Drain what was queued before shutdown.
			for {
				select {
				case t := <-p.tasks:
					p.run(t)
				default:
					return
				}
			}
		}
	}
}

// run verifies one batch and reports the verdict.
func (p *Pool) run(t task) {
	ok := true
	for _, r := range t.reqs {
		if !crypto.VerifyAuthenticator(p.ks, r.Auth, r.Digest()) {
			ok = false
			break
		}
	}
	p.depth.Add(-1)
	if ok {
		p.verified.Add(uint64(len(t.reqs)))
	} else {
		p.rejected.Inc()
	}
	t.done(ok)
}
