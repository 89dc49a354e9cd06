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
// coordinator (view changes; the checkpoint sub-protocol and state
// transfer run there), with the protocol-independent parts — the
// replica host included — supplied by internal/engine.
package pbft

import (
	"errors"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

// counterM is the TrInX counter used for trusted MACs in the
// HybridPBFT configuration.
const counterM uint32 = 0

// Options bundle the dependencies of an Engine. Platform hosts TrInX
// enclaves: required for HybridPBFT, unused by PBFTcop. With a DataDir
// the host logs decisions and stable checkpoints and a restart resumes
// from them; PBFT seals no counters, so a replica whose disk is lost
// restarts volatile, which the protocol tolerates within f.
type Options = engine.Options

// Engine is one PBFT replica.
type Engine struct {
	*engine.Host
	hybrid bool // true for HybridPBFT (trusted MACs)

	pillars []*pillar
	coord   *coordinator
}

// New assembles a PBFT replica.
func New(opts Options) (*Engine, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{hybrid: opts.Config.Protocol == config.HybridPBFT}
	h, err := engine.NewHost("pbft", opts, statemachine.NewExecutor(opts.Application), engine.Handlers{
		Classify: classify,
		Pillar:   func(u uint32, ev any) { e.pillars[u].handleEvent(ev) },
		Coord:    func(ev any) { e.coord.handleEvent(ev) },
		Abort:    func(to timeline.View) { e.coord.startViewChange(to) },
		Lags:     func(peer uint32) { e.coord.relayNewView(peer) },
		Standing: func(s *engine.Standing) { e.coord.standing(s) },
		Close:    e.close,
	})
	if err != nil {
		return nil, err
	}
	e.Host = h
	key := crypto.NewKeyFromSeed(opts.Config.KeySeed)
	// newTx creates the TrInX instance of one component (HybridPBFT only).
	newTx := func(pillar uint32) *trinx.TrInX {
		if !e.hybrid {
			return nil
		}
		return trinx.New(opts.Platform, trinx.MakeInstanceID(opts.ID, pillar), 1, key, opts.EnclaveCost).Instrument(opts.Telemetry)
	}
	e.coord = newCoordinator(e, newTx(0xffff))
	e.pillars = make([]*pillar, opts.Config.Pillars)
	for u := range e.pillars {
		e.pillars[u] = newPillar(e, uint32(u), newTx(uint32(u)))
	}
	return e, nil
}

// close is the Host's shutdown hook: PBFT owns only its TrInX instances.
func (e *Engine) close(bool) {
	if !e.hybrid {
		return
	}
	for _, p := range e.pillars {
		p.tx.Destroy()
	}
	e.coord.tx.Destroy()
}

// classify names the component that owns an inbound message.
func classify(m message.Message) engine.Route {
	switch v := m.(type) {
	case *message.Request:
		return engine.Route{To: engine.ToSequencer, Verify: []*message.Request{v}}
	case *message.PrePrepare:
		return engine.Route{To: engine.ToPillar, Order: v.Order, Verify: v.Requests}
	case *message.PBFTPrepare:
		return engine.Route{To: engine.ToPillar, Order: v.Order}
	case *message.PBFTCommit:
		return engine.Route{To: engine.ToPillar, Order: v.Order}
	case *message.PBFTCheckpoint:
		return engine.Route{To: engine.ToCkptPillar, Order: v.Order}
	case *message.PBFTViewChange, *message.PBFTNewView,
		*message.StateRequest, *message.StateReply:
		return engine.Route{To: engine.ToCoord}
	}
	return engine.Route{}
}

// sign authenticates digest d for the whole group: an authenticator
// for PBFTcop, a trusted MAC for HybridPBFT. tx is the calling
// pillar's TrInX instance (nil for PBFTcop).
func (e *Engine) sign(tx *trinx.TrInX, d crypto.Digest) (message.Proof, error) {
	if !e.hybrid {
		return message.Proof{Auth: crypto.NewAuthenticator(e.Keys, d, e.Cfg.N)}, nil
	}
	cert, err := tx.CreateTrustedMAC(counterM, d)
	if err != nil {
		return message.Proof{}, err
	}
	return message.Proof{TCert: cert}, nil
}

// errBadCheckpoint rejects a checkpoint announcement whose proof fails.
var errBadCheckpoint = errors.New("pbft: checkpoint announcement not authentic")

// verifyCheckpoint checks a checkpoint announcement's proof from the
// announcing replica and reduces it to what the quorum count reads.
func (e *Engine) verifyCheckpoint(tx *trinx.TrInX, m *message.PBFTCheckpoint) (announcement, error) {
	a := announcement{Replica: m.Replica, Order: m.Order, Digest: m.StateDigest, Msg: m}
	if !e.verify(tx, &m.Proof, m.Digest(), m.Replica) {
		return a, errBadCheckpoint
	}
	return a, nil
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
	return crypto.VerifyAuthenticator(e.Keys, p.Auth, d)
}
