package pbft

import (
	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// Events delivered to pillar mailboxes besides those of internal/engine
// (engine.InMsg, engine.Propose, engine.CkptDue, engine.Advance,
// engine.Tick).
type (
	// evCollectVC gathers the pillar's prepared proofs for a view
	// change.
	evCollectVC struct {
		reply chan []message.PreparedProof
	}
	// evInstallView installs a new view with re-issued pre-prepares
	// for this pillar's class.
	evInstallView struct {
		view        timeline.View
		startCkpt   timeline.Order
		prePrepares []*message.PrePrepare
		leader      bool
	}
)

// pslot tracks one PBFT consensus instance: it reaches "prepared" with
// the PRE-PREPARE plus 2f matching PREPAREs and "committed" with 2f+1
// matching COMMITs (Castro & Liskov, OSDI '99). Votes may arrive before
// the PRE-PREPARE; they are kept with the batch digest they were cast
// for, and only those for the PRE-PREPARE's digest survive its arrival.
type pslot struct {
	order       timeline.Order
	view        timeline.View
	prePrepare  *message.PrePrepare
	batchDigest crypto.Digest
	prepares    map[uint32]*message.PBFTPrepare
	commits     map[uint32]crypto.Digest
	sentPrepare bool
	sentCommit  bool
	prepared    bool
	committed   bool
	executed    bool
}

// setPrePrepare binds the slot to proposal pp and discards the early
// votes cast for any other batch: counted, they would let a replica
// that missed the original PRE-PREPARE commit an equivocating
// proposer's second batch on the strength of votes for the first.
func (s *pslot) setPrePrepare(pp *message.PrePrepare) {
	s.prePrepare = pp
	s.batchDigest = pp.BatchDigest()
	for r, m := range s.prepares {
		if m.BatchDigest != s.batchDigest {
			delete(s.prepares, r)
		}
	}
	for r, d := range s.commits {
		if d != s.batchDigest {
			delete(s.commits, r)
		}
	}
}

func newPSlot(o timeline.Order, v timeline.View) *pslot {
	return &pslot{
		order: o, view: v,
		prepares: make(map[uint32]*message.PBFTPrepare),
		commits:  make(map[uint32]crypto.Digest),
	}
}

// pillar is one processing unit of PBFTcop. Without trusted counters
// there is no per-pillar ascending constraint; instances of the class
// proceed independently.
type pillar struct {
	e   *Engine
	idx uint32
	tx  *trinx.TrInX // nil for PBFTcop
	met engine.OrderingMetrics
	// preprepares counts own proposals multicast (PRE-PREPARE sent).
	preprepares *telemetry.Counter

	view    timeline.View
	aborted bool
	low     timeline.Order
	slots   map[timeline.Order]*pslot
}

func newPillar(e *Engine, idx uint32, tx *trinx.TrInX) *pillar {
	return &pillar{
		e:   e,
		idx: idx,
		tx:  tx,
		met: e.Met.Ordering(engine.PillarLabel(idx)),
		preprepares: e.Met.Counter("preprepares_total", "own proposals multicast (PRE-PREPARE sent)",
			engine.PillarLabel(idx)),
		slots: make(map[timeline.Order]*pslot),
	}
}

func (p *pillar) high() timeline.Order { return p.low + p.e.Cfg.WindowSize }

func (p *pillar) inWindow(o timeline.Order) bool { return o > p.low && o <= p.high() }

// slot returns the slot for (o, v), creating or view-resetting it.
// Returns nil for stale views or out-of-window orders.
func (p *pillar) slot(o timeline.Order, v timeline.View) *pslot {
	if !p.inWindow(o) {
		return nil
	}
	s, ok := p.slots[o]
	if !ok {
		s = newPSlot(o, v)
		p.slots[o] = s
		return s
	}
	if v > s.view {
		executed := s.executed
		s = newPSlot(o, v)
		s.executed = executed
		p.slots[o] = s
	} else if v < s.view {
		return nil
	}
	return s
}

// handleEvent is the Host's handler for this pillar's mailbox.
func (p *pillar) handleEvent(ev any) {
	switch v := ev.(type) {
	case engine.InMsg:
		p.handleMessage(v)
	case engine.Propose:
		p.handlePropose(v)
	case engine.CkptDue:
		p.handleCkptDue(v)
	case engine.Advance:
		p.advance(v.Order)
	case evCollectVC:
		p.handleCollectVC(v)
	case evInstallView:
		p.handleInstallView(v)
	case engine.Tick:
		p.handleTick()
	}
}

func (p *pillar) handleMessage(in engine.InMsg) {
	switch v := in.Msg.(type) {
	case *message.PrePrepare:
		p.handlePrePrepare(in.From, v)
	case *message.PBFTPrepare:
		p.handlePrepare(in.From, v)
	case *message.PBFTCommit:
		p.handleCommit(in.From, v)
	case *message.PBFTCheckpoint:
		p.handleCheckpoint(in.From, v)
	}
}

// handlePropose makes this replica's proposal: certify and multicast a
// PRE-PREPARE.
func (p *pillar) handlePropose(ev engine.Propose) {
	if ev.View != p.view || p.aborted || !p.inWindow(ev.Order) {
		p.e.Seq.Credit(len(ev.Batch))
		return
	}
	pp := &message.PrePrepare{View: ev.View, Order: ev.Order, Requests: ev.Batch}
	proof, err := p.e.sign(p.tx, pp.Digest())
	if err != nil {
		p.e.Seq.Credit(len(ev.Batch))
		return
	}
	pp.Proof = proof
	s := p.slot(ev.Order, ev.View)
	if s == nil || s.prePrepare != nil {
		p.e.Seq.Credit(len(ev.Batch))
		return
	}
	s.setPrePrepare(pp)
	p.preprepares.Inc()
	p.e.Met.TraceD(telemetry.EvPropose, uint64(ev.View), uint64(ev.Order), p.idx, s.batchDigest[:], "")
	transport.Multicast(p.e.Ep, p.e.Cfg.N, pp)
	p.progress(s)
}

// handlePrePrepare validates a proposal's proof; the Host's inbound
// route delivered it only because every client authenticator of its
// batch verified.
func (p *pillar) handlePrePrepare(from uint32, pp *message.PrePrepare) {
	if pp.View != p.view || p.aborted {
		return
	}
	if pp.Order > p.high() {
		p.e.CoordBox.Put(engine.Behind{})
		return
	}
	if from != p.e.Cfg.ProposerOf(pp.View, pp.Order) {
		return
	}
	if !p.e.verify(p.tx, &pp.Proof, pp.Digest(), from) {
		return
	}
	p.e.NoteWork()
	p.acceptPrePrepare(pp)
}

// acceptPrePrepare records a (verified) proposal and answers it with
// this backup's PREPARE.
func (p *pillar) acceptPrePrepare(pp *message.PrePrepare) {
	s := p.slot(pp.Order, pp.View)
	if s == nil || s.prePrepare != nil {
		return
	}
	s.setPrePrepare(pp)
	if !s.sentPrepare {
		s.sentPrepare = true
		prep := &message.PBFTPrepare{
			View: pp.View, Order: pp.Order, Replica: p.e.ID(), BatchDigest: s.batchDigest,
		}
		proof, err := p.e.sign(p.tx, prep.Digest())
		if err != nil {
			return
		}
		prep.Proof = proof
		s.prepares[p.e.ID()] = prep
		p.met.Prepares.Inc()
		p.e.Met.TraceD(telemetry.EvPrepare, uint64(pp.View), uint64(pp.Order), p.idx, s.batchDigest[:], "")
		transport.Multicast(p.e.Ep, p.e.Cfg.N, prep)
	}
	p.progress(s)
}

func (p *pillar) handlePrepare(from uint32, m *message.PBFTPrepare) {
	if m.View != p.view || p.aborted || !p.inWindow(m.Order) {
		return
	}
	if m.Replica != from || from == p.e.Cfg.ProposerOf(m.View, m.Order) {
		return // the proposer's PRE-PREPARE stands in for its PREPARE
	}
	if s := p.slots[m.Order]; s != nil && s.view == m.View && s.prepared {
		return // settled: no PREPARE can change it, so none is verified
	}
	if !p.e.verify(p.tx, &m.Proof, m.Digest(), from) {
		return
	}
	s := p.slot(m.Order, m.View)
	if s == nil {
		return
	}
	if s.prePrepare != nil && s.batchDigest != m.BatchDigest {
		return
	}
	if _, dup := s.prepares[from]; dup {
		return
	}
	s.prepares[from] = m
	p.progress(s)
}

func (p *pillar) handleCommit(from uint32, m *message.PBFTCommit) {
	if m.View != p.view || p.aborted || !p.inWindow(m.Order) {
		return
	}
	if m.Replica != from {
		return
	}
	if s := p.slots[m.Order]; s != nil && s.view == m.View && s.committed {
		return // settled: no COMMIT can change it, so none is verified
	}
	if !p.e.verify(p.tx, &m.Proof, m.Digest(), from) {
		return
	}
	s := p.slot(m.Order, m.View)
	if s == nil {
		return
	}
	if s.prePrepare != nil && s.batchDigest != m.BatchDigest {
		return
	}
	s.commits[from] = m.BatchDigest
	p.progress(s)
}

// progress advances the slot through prepared → committed → executed.
// Prepared requires the PRE-PREPARE plus 2f PREPAREs from distinct
// backups (the proposer's PRE-PREPARE counts as its PREPARE);
// committed requires 2f+1 COMMITs.
func (p *pillar) progress(s *pslot) {
	f := p.e.Cfg.F()
	if !s.prepared && s.prePrepare != nil && len(s.prepares) >= 2*f {
		s.prepared = true
	}
	if s.prepared && !s.sentCommit {
		s.sentCommit = true
		com := &message.PBFTCommit{
			View: s.view, Order: s.order, Replica: p.e.ID(), BatchDigest: s.batchDigest,
		}
		proof, err := p.e.sign(p.tx, com.Digest())
		if err == nil {
			com.Proof = proof
			s.commits[p.e.ID()] = s.batchDigest
			p.met.Commits.Inc()
			p.e.Met.TraceD(telemetry.EvCommit, uint64(s.view), uint64(s.order), p.idx, s.batchDigest[:], "")
			transport.Multicast(p.e.Ep, p.e.Cfg.N, com)
		}
	}
	if !s.committed && s.prepared && len(s.commits) >= 2*f+1 {
		s.committed = true
	}
	if s.committed && !s.executed {
		s.executed = true
		p.met.Committed.Inc()
		p.e.Met.TraceD(telemetry.EvDeliver, uint64(s.view), uint64(s.order), p.idx, s.batchDigest[:], "")
		p.e.Decide(s.view, s.order, s.prePrepare.Requests, p.e.Cfg.ProposerOf(s.view, s.order) == p.e.ID())
	}
}

// handleCkptDue runs this pillar's checkpoint protocol instance
// (§5.3.2): certify the announcement of the digest.
func (p *pillar) handleCkptDue(ev engine.CkptDue) {
	ck := &message.PBFTCheckpoint{Order: ev.Order, Replica: p.e.ID(), StateDigest: ev.Digest}
	proof, err := p.e.sign(p.tx, ck.Digest())
	if err != nil {
		return
	}
	ck.Proof = proof
	p.e.coord.ck.Announce(p.idx, p.view, announcement{Replica: ck.Replica, Order: ck.Order, Digest: ck.StateDigest, Msg: ck})
}

// handleCheckpoint verifies a peer's checkpoint announcement and hands
// it to the coordinator, which counts the quorum.
func (p *pillar) handleCheckpoint(from uint32, m *message.PBFTCheckpoint) {
	if m.Replica != from {
		return
	}
	if a, err := p.e.verifyCheckpoint(p.tx, m); err == nil {
		p.e.CoordBox.Put(a)
	}
}

func (p *pillar) advance(o timeline.Order) {
	if o <= p.low {
		return
	}
	p.low = o
	for k := range p.slots {
		if k <= o {
			delete(p.slots, k)
		}
	}
}

// handleCollectVC returns the prepared proofs for every prepared
// instance above the last stable checkpoint and suspends ordering.
func (p *pillar) handleCollectVC(ev evCollectVC) {
	var proofs []message.PreparedProof
	for _, s := range p.slots {
		if !s.prepared || s.prePrepare == nil {
			continue
		}
		pp := message.PreparedProof{PrePrepare: s.prePrepare}
		for _, m := range s.prepares {
			pp.Prepares = append(pp.Prepares, m)
		}
		proofs = append(proofs, pp)
	}
	p.aborted = true
	ev.reply <- proofs
}

// handleInstallView enters the new view and processes the re-issued
// pre-prepares.
func (p *pillar) handleInstallView(ev evInstallView) {
	p.aborted = false
	p.view = ev.view
	p.advance(ev.startCkpt)
	for _, pp := range ev.prePrepares {
		if !p.inWindow(pp.Order) {
			continue
		}
		if ev.leader {
			s := p.slot(pp.Order, ev.view)
			if s != nil && s.prePrepare == nil {
				s.setPrePrepare(pp)
				p.progress(s)
			}
		} else {
			p.acceptPrePrepare(pp)
		}
	}
}

// handleTick retransmits this replica's message for the oldest
// uncommitted instance.
func (p *pillar) handleTick() {
	if p.aborted {
		return
	}
	var oldest *pslot
	for _, s := range p.slots {
		if s.committed {
			continue
		}
		if oldest == nil || s.order < oldest.order {
			oldest = s
		}
	}
	if oldest != nil && oldest.prePrepare != nil {
		if p.e.Cfg.ProposerOf(oldest.view, oldest.order) == p.e.ID() {
			p.met.Retransmits.Inc()
			p.e.Met.Trace(telemetry.EvRetransmit, uint64(oldest.view), uint64(oldest.order), p.idx, "")
			transport.Multicast(p.e.Ep, p.e.Cfg.N, oldest.prePrepare)
		} else if own, ok := oldest.prepares[p.e.ID()]; ok {
			p.met.Retransmits.Inc()
			p.e.Met.Trace(telemetry.EvRetransmit, uint64(oldest.view), uint64(oldest.order), p.idx, "")
			transport.Multicast(p.e.Ep, p.e.Cfg.N, own)
		}
	}
}
