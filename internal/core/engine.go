// Package core implements Hybster (§5), the paper's contribution: a
// highly parallelizable hybrid state-machine replication protocol built
// on TrInX trusted counters.
//
// One Engine is one replica. The engine is organized as the
// consensus-oriented parallelization of §5.3: a configurable number of
// pillars — equal, share-nothing processing units, each with its own
// TrInX instance — plus an execution stage and a coordinator that runs
// the replica-local parts of checkpointing, view changes, and state
// transfer. With a single pillar the engine is exactly the sequential
// basic protocol of §5.2 (the HybsterS configuration); with one pillar
// per core it is HybsterX. The protocol-independent parts of that
// pipeline (sequencer, execution stage, watchdog, checkpoint store and
// state transfer, metrics) are internal/engine's; this package holds
// what TrInX certifies.
//
// Messages flow:
//
//	transport → route → pillar mailboxes   (PREPARE, COMMIT, CHECKPOINT)
//	                  → coordinator        (VIEW-CHANGE, NEW-VIEW, ACK, state transfer)
//	                  → sequencer          (REQUEST admission)
//	pillars → execution mailbox → application → REPLY to clients
//	execution → coordinator               (checkpoint digests)
//	coordinator ↔ pillars                 (view-change/checkpoint events)
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/verify"
)

// Trusted counter IDs within each pillar's TrInX instance.
const (
	counterO    uint32 = 0 // ordering counter (§5.2.1)
	counterM    uint32 = 1 // checkpoint trusted-MAC counter (§5.2.2)
	numCounters        = 2
)

// coordinatorPillar is the pillar index used in the instance ID of the
// coordinator's TrInX instance (it only verifies and issues trusted
// MACs for view-change auxiliaries).
const coordinatorPillar uint32 = 0xffff

// Options bundle the dependencies of an Engine.
type Options struct {
	// Config is the validated group configuration.
	Config config.Config
	// ID is this replica's ID in [0, N).
	ID uint32
	// Endpoint connects the replica to the group.
	Endpoint transport.Endpoint
	// Application is the replicated service.
	Application statemachine.Application
	// Platform hosts the TrInX enclaves.
	Platform *enclave.Platform
	// EnclaveCost is the simulated SGX cost model for TrInX calls.
	EnclaveCost enclave.CostModel
	// Telemetry, when non-nil, enables metrics and protocol-event
	// tracing for this replica (package telemetry). nil runs the
	// engine fully uninstrumented.
	Telemetry *telemetry.Telemetry
	// DataDir, when non-empty, enables durable crash-recovery: trusted
	// counters are sealed to DataDir/seal with a monotonic horizon and
	// committed decisions plus stable checkpoints land in a write-ahead
	// log under DataDir/wal. On boot the engine restores the sealed
	// counters, installs the last stable checkpoint, and replays the
	// decision tail before fetching the rest via state transfer. New
	// fails with trinx.ErrStaleSeal on a rolled-back seal and
	// trinx.ErrAmnesia when the seal register proves state the disk no
	// longer holds.
	DataDir string
	// Now optionally overrides the time source (tests).
	Now func() time.Time
}

// Engine is one Hybster replica.
type Engine struct {
	cfg config.Config
	id  uint32
	ep  transport.Endpoint
	ks  *crypto.KeyStore
	*engine.Watchdog

	pillars []*pillar
	exec    *engine.ExecLoop
	coord   *coordinator
	seq     *engine.Sequencer
	replies *reply.Stage
	vpool   *verify.Pool
	vord    *verify.Ordered
	dur     *durability    // nil without a data dir
	met     engine.Metrics // records nothing when telemetry is off

	// curView mirrors the coordinator's stable view for lock-free
	// reads on hot paths.
	curView atomic.Uint64

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// New assembles a replica engine. Call Start to begin processing.
func New(opts Options) (*Engine, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	key := crypto.NewKeyFromSeed(opts.Config.KeySeed)
	e := &Engine{
		cfg:     opts.Config,
		id:      opts.ID,
		ep:      opts.Endpoint,
		ks:      crypto.NewKeyStore(opts.ID, key),
		met:     engine.NewMetrics(opts.Telemetry, "core"),
		stopped: make(chan struct{}),
	}
	e.Watchdog = engine.NewWatchdog("core", e.cfg.ViewChangeTimeout, opts.Now, e.stopped)
	x := statemachine.NewExecutor(opts.Application)
	if opts.DataDir != "" {
		dur, err := openDurability(opts.DataDir, opts.Telemetry)
		if err != nil {
			return nil, err
		}
		e.dur = dur
		e.replay(x)
	}
	e.seq = engine.NewSequencer(e.cfg, e.id, e.View, e.ep, e.met, e.propose)
	e.replies = reply.NewStage(e.id, e.ks, e.ep, 0, opts.Telemetry)
	e.exec = engine.NewExecLoop(x, e.cfg, e.met, e.replies, e.seq.Credit,
		func(v *statemachine.CheckpointView) { e.coord.inbox.Put(v) }, e.NoteProgress)
	coordTx, err := e.newCertifier(opts, coordinatorPillar, key)
	if err != nil {
		if e.dur != nil {
			_ = e.dur.log.Close()
		}
		return nil, err
	}
	e.coord = newCoordinator(e, coordTx)
	e.pillars = make([]*pillar, opts.Config.Pillars)
	for u := range e.pillars {
		tx, err := e.newCertifier(opts, uint32(u), key)
		if err != nil {
			coordTx.Destroy()
			for _, p := range e.pillars {
				if p != nil {
					p.tx.Destroy()
				}
			}
			if e.dur != nil {
				_ = e.dur.log.Close()
			}
			return nil, err
		}
		e.pillars[u] = newPillar(e, uint32(u), tx)
	}
	e.vpool = verify.NewPool(e.ks, 0, opts.Telemetry)
	e.vord = verify.NewOrdered(e.vpool)
	e.met.PillarGauges(&e.curView, e.coord.ck.StableOrder, len(e.pillars),
		func(u int) int { return e.pillars[u].inbox.Len() }, e.exec, e.coord.inbox)
	if e.dur != nil {
		e.restore()
	}
	return e, nil
}

// ID returns the replica ID.
func (e *Engine) ID() uint32 { return e.id }

// Config returns the group configuration.
func (e *Engine) Config() config.Config { return e.cfg }

// View returns the replica's current stable view.
func (e *Engine) View() timeline.View { return timeline.View(e.curView.Load()) }

// LastExecuted returns the highest executed order number (diagnostics
// and tests).
func (e *Engine) LastExecuted() timeline.Order { return e.exec.LastExecuted() }

// Telemetry returns the engine's telemetry bundle (nil when disabled);
// the ops server and cluster introspection read through it.
func (e *Engine) Telemetry() *telemetry.Telemetry { return e.met.Telemetry() }

// Start launches the replica's goroutines and installs the transport
// handler.
func (e *Engine) Start() {
	e.ep.Handle(e.route)
	for _, p := range e.pillars {
		e.wg.Add(1)
		go func(p *pillar) { defer e.wg.Done(); p.run() }(p)
	}
	e.wg.Add(3)
	go func() { defer e.wg.Done(); e.exec.Run() }()
	go func() { defer e.wg.Done(); e.coord.run() }()
	go func() { defer e.wg.Done(); e.RunTicker(func() { e.coord.inbox.Put(engine.Tick{}) }) }()
}

// Stop shuts the replica down gracefully and waits for its goroutines:
// the WAL is flushed and closed and the exact counter values are
// sealed, so a subsequent boot resumes warm.
func (e *Engine) Stop() { e.stop(true) }

// Kill crash-stops the replica: goroutines are torn down (an
// in-process harness cannot leak them), but the durable state is left
// exactly as kill -9 would leave it — no exact-value seal, no WAL
// flush, and the WAL's unsynced tail torn mid-frame. A cold restart
// after Kill exercises the genuine crash-recovery path: counters
// resume at the sealed horizon (burning the reservation) and the WAL
// tail is truncated to its last durable frame.
func (e *Engine) Kill() { e.stop(false) }

func (e *Engine) stop(graceful bool) {
	e.stopOnce.Do(func() {
		close(e.stopped)
		_ = e.ep.Close()
		e.vpool.Close()
		for _, p := range e.pillars {
			p.inbox.Close()
		}
		e.exec.Close()
		e.coord.inbox.Close()
		e.wg.Wait()
		// The exec loop is done submitting; drain outstanding replies.
		e.replies.Close()
		if graceful {
			e.shutdownDurability()
		} else {
			e.abandonDurability()
		}
		for _, p := range e.pillars {
			p.tx.Destroy()
		}
		e.coord.tx.Destroy()
	})
}

// route dispatches an inbound message to the component that owns it.
// It runs on transport goroutines and does no crypto itself: messages
// carrying client authenticators are verified on the parallel stage,
// everything else passes through unchecked — but all of it flows
// through the stage's ordered front, so events reach the mailboxes in
// exact arrival order just as an inline check would deliver them.
func (e *Engine) route(from uint32, m message.Message) {
	switch v := m.(type) {
	case *message.Request:
		e.vord.Submit(from, []*message.Request{v}, func(ok bool) {
			if ok {
				e.NoteWork()
				e.seq.Admit(v)
			}
		})
	case *message.Prepare:
		if len(v.Requests) == 0 {
			e.vord.Pass(from, func() { e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m}) })
			return
		}
		e.vord.Submit(from, v.Requests, func(ok bool) {
			// A batch with a forged client authenticator dies here,
			// before it can occupy a pillar.
			if ok {
				e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m, Verified: true})
			}
		})
	case *message.Commit:
		e.vord.Pass(from, func() { e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m}) })
	case *message.Checkpoint:
		e.vord.Pass(from, func() {
			e.pillars[e.cfg.CheckpointPillar(v.Order)%uint32(len(e.pillars))].inbox.Put(engine.InMsg{From: from, Msg: m})
		})
	case *message.ViewChange, *message.NewView, *message.NewViewAck,
		*message.StateRequest, *message.StateReply:
		e.vord.Pass(from, func() { e.coord.inbox.Put(engine.InMsg{From: from, Msg: m}) })
	default:
		// Unknown or foreign-protocol message: drop.
	}
}

func (e *Engine) pillarFor(o timeline.Order) *pillar {
	return e.pillars[e.cfg.PillarOf(o)%uint32(len(e.pillars))]
}

// propose is the sequencer's hand-off: the batch goes to the pillar
// owning order o, which certifies and multicasts it.
func (e *Engine) propose(pillar uint32, v timeline.View, o timeline.Order, batch []*message.Request) {
	e.pillars[pillar].inbox.Put(evPropose{view: v, order: o, batch: batch})
}
