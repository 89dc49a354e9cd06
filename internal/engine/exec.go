package engine

import (
	"errors"
	"sync/atomic"

	"hybster/internal/config"
	"hybster/internal/cop"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
)

// execEvent is the one typed event of the execution mailbox, so the
// common case pays no interface boxing.
type execEvent struct {
	order timeline.Order
	batch []*message.Request
	// own marks an instance this replica proposed: it holds one of the
	// sequencer's in-flight slots. Foreign proposals and every MinBFT
	// instance hold none.
	own bool
	// install, when non-nil, turns this event into a state-transfer
	// installation instead of a batch delivery.
	install *installReq
}

// errExecuted refuses a state transfer whose checkpoint execution had
// reached by the time the transfer came up on the execution stage.
var errExecuted = errors.New("engine: checkpoint already executed")

// installReq carries a verified state transfer to the execution stage.
type installReq struct {
	ckpt     timeline.Order
	snapshot []byte
	rv       []byte
	done     chan error
}

// ExecLoop is the execution stage: it delivers committed instances to
// the application strictly in order-number sequence, answers clients,
// and emits checkpoint boundaries at interval boundaries (§5.3.2,
// EXEC-REQUEST / CK-REACHED in Fig. 4).
type ExecLoop struct {
	cfg     config.Config
	met     Metrics
	inbox   *cop.Mailbox[execEvent]
	x       *statemachine.Executor
	replies *reply.Stage

	// credit returns an own instance's flow-control slot (nil when the
	// protocol has none); checkpoint and progress post a boundary and
	// the outcome of a delivery round to whichever loop runs the
	// protocol's checkpointing and watchdog.
	credit     func(reqs int)
	checkpoint func(*statemachine.CheckpointView)
	progress   func(stillPending bool)

	// last mirrors the executor's cursor for lock-free reads by the
	// watchdog, gauges and tests.
	last atomic.Uint64
}

// newExecLoop wraps executor x (which recovery may have advanced
// already). The three funcs are called directly on the loop goroutine.
func newExecLoop(x *statemachine.Executor, cfg config.Config, met Metrics, replies *reply.Stage,
	credit func(reqs int),
	checkpoint func(*statemachine.CheckpointView),
	progress func(stillPending bool)) *ExecLoop {

	l := &ExecLoop{
		cfg: cfg, met: met, inbox: cop.NewMailbox[execEvent](), x: x, replies: replies,
		credit: credit, checkpoint: checkpoint, progress: progress,
	}
	l.last.Store(uint64(x.LastExecuted()))
	met.GaugeFunc("last_executed", "highest executed order number",
		func() float64 { return float64(l.last.Load()) })
	return l
}

// LastExecuted returns the highest executed order number.
func (l *ExecLoop) LastExecuted() timeline.Order { return timeline.Order(l.last.Load()) }

// Deliver queues a committed instance; own reports whether this
// replica proposed it, and so holds a sequencer slot for it.
func (l *ExecLoop) Deliver(o timeline.Order, batch []*message.Request, own bool) {
	l.inbox.Put(execEvent{order: o, batch: batch, own: own})
}

// install hands a verified snapshot to the loop and waits for the
// outcome, or for the engine to stop.
func (l *ExecLoop) install(ckpt timeline.Order, snapshot, rv []byte, stopped <-chan struct{}) error {
	done := make(chan error, 1)
	l.inbox.Put(execEvent{install: &installReq{ckpt: ckpt, snapshot: snapshot, rv: rv, done: done}})
	select {
	case err := <-done:
		return err
	case <-stopped:
		return errors.New("engine: stopped during state installation")
	}
}

// close ends run once the queued events are drained.
func (l *ExecLoop) close() { l.inbox.Close() }

// run is the loop; it returns after close.
func (l *ExecLoop) run() {
	for {
		ev, ok := l.inbox.Get()
		if !ok {
			return
		}
		if req := ev.install; req != nil {
			// The decisions queued ahead of the transfer may have carried
			// execution to its checkpoint already.
			err := errExecuted
			if req.ckpt > l.LastExecuted() {
				err = l.x.InstallState(req.ckpt, req.snapshot, req.rv)
			}
			if err == nil {
				l.last.Store(uint64(req.ckpt))
				// Installation is progress, and buffered later instances
				// may now be contiguous.
				l.drain(true)
			}
			req.done <- err
			continue
		}
		// The slot is returned when execution dequeues the instance, not
		// when it is delivered: see Sequencer.Credit.
		if ev.own {
			l.credit(len(ev.batch))
		}
		if l.x.Buffer(ev.order, ev.batch) {
			l.drain(false)
		}
	}
}

// drain delivers every contiguous instance, stepping one at a time so
// checkpoint boundaries are taken exactly at interval boundaries.
func (l *ExecLoop) drain(progressed bool) {
	for {
		ex := l.x.Step()
		if ex == nil {
			break
		}
		progressed = true
		l.last.Store(uint64(ex.Order))
		l.met.ExecBatches.Inc()
		l.met.ExecRequests.Add(uint64(len(ex.Replies)))
		l.met.Trace(telemetry.EvExec, 0, uint64(ex.Order), 0, "")
		l.reply(ex)
		if l.cfg.IsCheckpoint(ex.Order) {
			// Hand over a lazy view of the boundary instead of
			// serializing the application here: the snapshot encode and
			// digest hashes run on the receiving loop, so delivery of the
			// next instance is never stalled behind a state copy.
			l.checkpoint(l.x.CheckpointView())
		}
	}
	if progressed {
		l.progress(l.x.Pending() > 0)
	}
}

// reply hands every client served by the delivered instance to the
// parallel reply stage; MAC computation and the sends happen there,
// off the execution loop (reply authentication is independent per
// client and needs no ordering beyond the per-client FIFO the stage
// guarantees).
func (l *ExecLoop) reply(ex *statemachine.Executed) {
	// A single-reply instance (unbatched request) goes inline when the
	// shard is quiet: at light load the worker wakeup would dominate
	// the reply latency.
	if len(ex.Replies) == 1 {
		r := ex.Replies[0]
		l.replies.SubmitInline(r.Client, r.Seq, r.Result)
		return
	}
	for _, r := range ex.Replies {
		l.replies.Submit(r.Client, r.Seq, r.Result)
	}
}
