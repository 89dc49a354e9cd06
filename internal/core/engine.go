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
// pipeline (the replica host with its mailboxes, routing and lifecycle,
// sequencer, execution stage, watchdog, the checkpoint sub-protocol and
// state transfer, metrics) are internal/engine's; this package holds
// what TrInX certifies.
//
// Messages flow:
//
//	transport → classify → pillar mailboxes (PREPARE, COMMIT, CHECKPOINT)
//	                     → coordinator      (VIEW-CHANGE, NEW-VIEW, ACK, state transfer)
//	                     → sequencer        (REQUEST admission)
//	pillars → execution mailbox → application → REPLY to clients
//	execution → coordinator               (checkpoint boundaries)
//	coordinator ↔ pillars                 (view-change/checkpoint events)
package core

import (
	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
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
type Options = engine.Options

// Engine is one Hybster replica.
type Engine struct {
	*engine.Host

	pillars []*pillar
	coord   *coordinator
	// durables are the counter instances sealed on a graceful stop; nil
	// without a data dir.
	durables []*trinx.DurableTrInX
}

// New assembles a replica engine. Call Start to begin processing.
func New(opts Options) (*Engine, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{}
	h, err := engine.NewHost("core", opts, statemachine.NewExecutor(opts.Application), engine.Handlers{
		Classify: classify,
		Pillar:   func(u uint32, ev any) { e.pillars[u].handleEvent(ev) },
		Coord:    func(ev any) { e.coord.handleEvent(ev) },
		Abort:    func(to timeline.View) { e.coord.bumpDesired(to); e.coord.tryAdvanceView() },
		Lags:     func(peer uint32) { e.coord.relayNewView(peer) },
		Standing: func(s *engine.Standing) { e.coord.standing(s) },
		Close:    e.close,
	})
	if err != nil {
		return nil, err
	}
	e.Host = h
	key := crypto.NewKeyFromSeed(opts.Config.KeySeed)
	coordTx, err := e.newCertifier(opts, coordinatorPillar, key)
	if err != nil {
		e.Kill()
		return nil, err
	}
	e.coord = newCoordinator(e, coordTx)
	e.pillars = make([]*pillar, opts.Config.Pillars)
	for u := range e.pillars {
		tx, err := e.newCertifier(opts, uint32(u), key)
		if err != nil {
			e.Kill()
			return nil, err
		}
		e.pillars[u] = newPillar(e, uint32(u), tx)
	}
	return e, nil
}

// close is the Host's shutdown hook. A graceful stop seals the exact
// counter values, so a subsequent boot resumes warm with no horizon
// jump; a kill takes no seal, as kill -9 would not. New also runs it
// (as a kill) when a certifier refuses to boot.
func (e *Engine) close(graceful bool) {
	if graceful {
		for _, d := range e.durables {
			_ = d.SealNow()
		}
	}
	for _, p := range e.pillars {
		if p != nil {
			p.tx.Destroy()
		}
	}
	if e.coord != nil {
		e.coord.tx.Destroy()
	}
}

// classify names the component that owns an inbound message.
func classify(m message.Message) engine.Route {
	switch v := m.(type) {
	case *message.Request:
		return engine.Route{To: engine.ToSequencer, Verify: []*message.Request{v}}
	case *message.Prepare:
		return engine.Route{To: engine.ToPillar, Order: v.Order, Verify: v.Requests}
	case *message.Commit:
		return engine.Route{To: engine.ToPillar, Order: v.Order}
	case *message.Checkpoint:
		return engine.Route{To: engine.ToCkptPillar, Order: v.Order}
	case *message.ViewChange, *message.NewView, *message.NewViewAck,
		*message.StateRequest, *message.StateReply:
		return engine.Route{To: engine.ToCoord}
	}
	return engine.Route{} // unknown or foreign-protocol message: drop
}
