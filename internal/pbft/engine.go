// Package pbft implements the baseline the paper evaluates Hybster
// against (§6): Castro & Liskov's PBFT restructured with the
// consensus-oriented parallelization scheme — PBFTcop — plus the
// HybridPBFT configuration that replaces MAC authenticators with TrInX
// trusted MACs (§5.1, "Trusted MAC Certificates").
//
// PBFT runs on the pure Byzantine fault model: n = 3f+1 replicas,
// three ordering phases (PRE-PREPARE, PREPARE, COMMIT), quorums of
// 2f+1. Unlike Hybster, no trusted counter constrains processing
// order, so pillars can certify instances of their class in any order;
// the parallelization only partitions the instance space.
//
// The structure is the pipeline of §5.3: pillars + execution stage +
// coordinator (checkpoint stability, view changes, state transfer),
// with the protocol-independent parts supplied by internal/engine.
package pbft

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
	"hybster/internal/trinx"
	"hybster/internal/verify"
)

// counterM is the TrInX counter used for trusted MACs in the
// HybridPBFT configuration.
const counterM uint32 = 0

// Options bundle the dependencies of an Engine.
type Options struct {
	Config      config.Config
	ID          uint32
	Endpoint    transport.Endpoint
	Application statemachine.Application
	// Platform hosts TrInX enclaves; required for HybridPBFT, unused
	// by PBFTcop.
	Platform    *enclave.Platform
	EnclaveCost enclave.CostModel
	Now         func() time.Time
	// Telemetry receives this replica's metrics and trace events; nil
	// disables instrumentation.
	Telemetry *telemetry.Telemetry
}

// Engine is one PBFT replica.
type Engine struct {
	cfg    config.Config
	id     uint32
	ep     transport.Endpoint
	ks     *crypto.KeyStore
	hybrid bool // true for HybridPBFT (trusted MACs)
	*engine.Watchdog

	pillars []*pillar
	exec    *engine.ExecLoop
	coord   *coordinator
	seq     *engine.Sequencer
	replies *reply.Stage
	vpool   *verify.Pool
	vord    *verify.Ordered
	met     engine.Metrics

	// curView mirrors the coordinator's stable view for lock-free
	// reads on hot paths.
	curView atomic.Uint64

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// New assembles a PBFT replica.
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
		hybrid:  opts.Config.Protocol == config.HybridPBFT,
		met:     engine.NewMetrics(opts.Telemetry, "pbft"),
		stopped: make(chan struct{}),
	}
	e.Watchdog = engine.NewWatchdog("pbft", e.cfg.ViewChangeTimeout, opts.Now, e.stopped)
	e.seq = engine.NewSequencer(e.cfg, e.id, e.View, e.ep, e.met, e.propose)
	e.replies = reply.NewStage(e.id, e.ks, e.ep, 0, opts.Telemetry)
	e.exec = engine.NewExecLoop(statemachine.NewExecutor(opts.Application), e.cfg, e.met, e.replies, e.seq.Credit,
		func(v *statemachine.CheckpointView) { e.coord.inbox.Put(v) }, e.NoteProgress)
	var coordTx *trinx.TrInX
	if e.hybrid {
		coordTx = trinx.New(opts.Platform, trinx.MakeInstanceID(opts.ID, 0xffff), 1, key, opts.EnclaveCost).Instrument(opts.Telemetry)
	}
	e.coord = newCoordinator(e, coordTx)
	e.pillars = make([]*pillar, opts.Config.Pillars)
	for u := range e.pillars {
		var tx *trinx.TrInX
		if e.hybrid {
			tx = trinx.New(opts.Platform, trinx.MakeInstanceID(opts.ID, uint32(u)), 1, key, opts.EnclaveCost).Instrument(opts.Telemetry)
		}
		e.pillars[u] = newPillar(e, uint32(u), tx)
	}
	e.vpool = verify.NewPool(e.ks, 0, opts.Telemetry)
	e.vord = verify.NewOrdered(e.vpool)
	e.met.PillarGauges(&e.curView, e.coord.ck.StableOrder, len(e.pillars),
		func(u int) int { return e.pillars[u].inbox.Len() }, e.exec, e.coord.inbox)
	return e, nil
}

// ID returns the replica ID.
func (e *Engine) ID() uint32 { return e.id }

// View returns the current stable view.
func (e *Engine) View() timeline.View { return timeline.View(e.curView.Load()) }

// LastExecuted returns the highest executed order number.
func (e *Engine) LastExecuted() timeline.Order { return e.exec.LastExecuted() }

// Telemetry returns the engine's telemetry bundle (nil when disabled).
func (e *Engine) Telemetry() *telemetry.Telemetry { return e.met.Telemetry() }

// Start launches the replica.
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

// Stop shuts the replica down.
func (e *Engine) Stop() {
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
		for _, p := range e.pillars {
			if p.tx != nil {
				p.tx.Destroy()
			}
		}
		if e.coord.tx != nil {
			e.coord.tx.Destroy()
		}
	})
}

// route dispatches inbound messages; client-authenticator checks run
// on the parallel verify stage before the event reaches a pillar, and
// every message flows through the stage's ordered front so events
// reach the mailboxes in exact arrival order.
func (e *Engine) route(from uint32, m message.Message) {
	switch v := m.(type) {
	case *message.Request:
		e.vord.Submit(from, []*message.Request{v}, func(ok bool) {
			if ok {
				e.NoteWork()
				e.seq.Admit(v)
			}
		})
	case *message.PrePrepare:
		if len(v.Requests) == 0 {
			e.vord.Pass(from, func() { e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m}) })
			return
		}
		e.vord.Submit(from, v.Requests, func(ok bool) {
			if ok {
				e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m, Verified: true})
			}
		})
	case *message.PBFTPrepare:
		e.vord.Pass(from, func() { e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m}) })
	case *message.PBFTCommit:
		e.vord.Pass(from, func() { e.pillarFor(v.Order).inbox.Put(engine.InMsg{From: from, Msg: m}) })
	case *message.PBFTCheckpoint:
		e.vord.Pass(from, func() {
			e.pillars[e.cfg.CheckpointPillar(v.Order)%uint32(len(e.pillars))].inbox.Put(engine.InMsg{From: from, Msg: m})
		})
	case *message.PBFTViewChange, *message.PBFTNewView,
		*message.StateRequest, *message.StateReply:
		e.vord.Pass(from, func() { e.coord.inbox.Put(engine.InMsg{From: from, Msg: m}) })
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

// sign authenticates digest d for the whole group: an authenticator
// for PBFTcop, a trusted MAC for HybridPBFT. tx is the calling
// pillar's TrInX instance (nil for PBFTcop).
func (e *Engine) sign(tx *trinx.TrInX, d crypto.Digest) (message.Proof, error) {
	if !e.hybrid {
		return message.Proof{Auth: crypto.NewAuthenticator(e.ks, d, e.cfg.N)}, nil
	}
	cert, err := tx.CreateTrustedMAC(counterM, d)
	if err != nil {
		return message.Proof{}, err
	}
	return message.Proof{TCert: cert}, nil
}

// verify checks a proof over digest d claimed by replica "claimed".
func (e *Engine) verify(tx *trinx.TrInX, p *message.Proof, d crypto.Digest, claimed uint32) bool {
	if e.hybrid {
		if !p.HasTCert() || p.TCert.Issuer.Replica() != claimed ||
			p.TCert.Kind != trinx.Continuing || p.TCert.Value != p.TCert.Prev {
			return false
		}
		return tx.Verify(p.TCert, d) == nil
	}
	if p.Auth.Sender != claimed {
		return false
	}
	return crypto.VerifyAuthenticator(e.ks, p.Auth, d)
}
