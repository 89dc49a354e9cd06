package pbft

import (
	"hybster/internal/checkpoint"
	"hybster/internal/cop"
	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// Events delivered to pillar mailboxes (besides inbound messages in
// engine.InMsg and the coordinator's engine.Tick).
type (
	evPropose struct {
		view  timeline.View
		order timeline.Order
		batch []*message.Request
	}
	evCkptDue struct {
		order  timeline.Order
		digest crypto.Digest
	}
	evAdvance struct{ order timeline.Order }
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
// COMMITs (Castro & Liskov, OSDI '99).
type pslot struct {
	order       timeline.Order
	view        timeline.View
	prePrepare  *message.PrePrepare
	batchDigest crypto.Digest
	prepares    map[uint32]*message.PBFTPrepare
	commits     map[uint32]bool
	sentPrepare bool
	sentCommit  bool
	prepared    bool
	committed   bool
	executed    bool
}

func newPSlot(o timeline.Order, v timeline.View) *pslot {
	return &pslot{
		order: o, view: v,
		prepares: make(map[uint32]*message.PBFTPrepare),
		commits:  make(map[uint32]bool),
	}
}

// pillar is one processing unit of PBFTcop. Without trusted counters
// there is no per-pillar ascending constraint; instances of the class
// proceed independently.
type pillar struct {
	e     *Engine
	idx   uint32
	tx    *trinx.TrInX // nil for PBFTcop
	inbox *cop.Mailbox[any]
	met   engine.OrderingMetrics
	// preprepares counts own proposals multicast (PRE-PREPARE sent).
	preprepares *telemetry.Counter

	view    timeline.View
	aborted bool
	low     timeline.Order
	slots   map[timeline.Order]*pslot
	ckpts   *checkpoint.Tracker[*message.PBFTCheckpoint]
	ownCkpt map[timeline.Order]*message.PBFTCheckpoint
}

func newPillar(e *Engine, idx uint32, tx *trinx.TrInX) *pillar {
	return &pillar{
		e:     e,
		idx:   idx,
		tx:    tx,
		inbox: cop.NewMailbox[any](),
		met:   e.met.Ordering(engine.PillarLabel(idx)),
		preprepares: e.met.Counter("preprepares_total", "own proposals multicast (PRE-PREPARE sent)",
			engine.PillarLabel(idx)),
		slots:   make(map[timeline.Order]*pslot),
		ckpts:   checkpoint.NewTracker[*message.PBFTCheckpoint](e.cfg.Quorum()),
		ownCkpt: make(map[timeline.Order]*message.PBFTCheckpoint),
	}
}

func (p *pillar) high() timeline.Order { return p.low + p.e.cfg.WindowSize }

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

func (p *pillar) run() {
	// Drain the mailbox in batches: under load one lock round-trip
	// fetches a burst of events instead of paying the lock per event.
	batch := make([]any, 0, 32)
	for {
		events, ok := p.inbox.GetBatch(batch[:0])
		if !ok {
			return
		}
		for _, ev := range events {
			p.handleEvent(ev)
		}
	}
}

func (p *pillar) handleEvent(ev any) {
	switch v := ev.(type) {
	case engine.InMsg:
		p.handleMessage(v)
	case evPropose:
		p.handlePropose(v)
	case evCkptDue:
		p.handleCkptDue(v)
	case evAdvance:
		p.advance(v.order)
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
		p.handlePrePrepare(in.From, v, in.Verified)
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
func (p *pillar) handlePropose(ev evPropose) {
	if ev.view != p.view || p.aborted || !p.inWindow(ev.order) {
		p.e.seq.Credit(p.idx, len(ev.batch))
		return
	}
	pp := &message.PrePrepare{View: ev.view, Order: ev.order, Requests: ev.batch}
	proof, err := p.e.sign(p.tx, pp.Digest())
	if err != nil {
		p.e.seq.Credit(p.idx, len(ev.batch))
		return
	}
	pp.Proof = proof
	s := p.slot(ev.order, ev.view)
	if s == nil || s.prePrepare != nil {
		p.e.seq.Credit(p.idx, len(ev.batch))
		return
	}
	s.prePrepare = pp
	s.batchDigest = pp.BatchDigest()
	p.preprepares.Inc()
	p.e.met.TraceD(telemetry.EvPropose, uint64(ev.view), uint64(ev.order), p.idx, s.batchDigest[:], "")
	transport.Multicast(p.e.ep, p.e.cfg.N, pp)
	p.progress(s)
}

// handlePrePrepare validates a proposal; authVerified skips the
// client-authenticator loop for batches the parallel verify stage
// already cleared (the proposer's proof is always checked here).
func (p *pillar) handlePrePrepare(from uint32, pp *message.PrePrepare, authVerified bool) {
	if pp.View != p.view || p.aborted {
		return
	}
	if pp.Order > p.high() {
		p.e.coord.inbox.Put(evBehind{})
		return
	}
	if from != p.e.cfg.ProposerOf(pp.View, pp.Order) {
		return
	}
	if !p.e.verify(p.tx, &pp.Proof, pp.Digest(), from) {
		return
	}
	if !authVerified {
		for _, r := range pp.Requests {
			if !crypto.VerifyAuthenticator(p.e.ks, r.Auth, r.Digest()) {
				return
			}
		}
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
	s.prePrepare = pp
	s.batchDigest = pp.BatchDigest()
	if !s.sentPrepare {
		s.sentPrepare = true
		prep := &message.PBFTPrepare{
			View: pp.View, Order: pp.Order, Replica: p.e.id, BatchDigest: s.batchDigest,
		}
		proof, err := p.e.sign(p.tx, prep.Digest())
		if err != nil {
			return
		}
		prep.Proof = proof
		s.prepares[p.e.id] = prep
		p.met.Prepares.Inc()
		p.e.met.TraceD(telemetry.EvPrepare, uint64(pp.View), uint64(pp.Order), p.idx, s.batchDigest[:], "")
		transport.Multicast(p.e.ep, p.e.cfg.N, prep)
	}
	p.progress(s)
}

func (p *pillar) handlePrepare(from uint32, m *message.PBFTPrepare) {
	if m.View != p.view || p.aborted || !p.inWindow(m.Order) {
		return
	}
	if m.Replica != from || from == p.e.cfg.ProposerOf(m.View, m.Order) {
		return // the proposer's PRE-PREPARE stands in for its PREPARE
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
	s.commits[from] = true
	p.progress(s)
}

// progress advances the slot through prepared → committed → executed.
// Prepared requires the PRE-PREPARE plus 2f PREPAREs from distinct
// backups (the proposer's PRE-PREPARE counts as its PREPARE);
// committed requires 2f+1 COMMITs.
func (p *pillar) progress(s *pslot) {
	f := p.e.cfg.F()
	if !s.prepared && s.prePrepare != nil && len(s.prepares) >= 2*f {
		s.prepared = true
	}
	if s.prepared && !s.sentCommit {
		s.sentCommit = true
		com := &message.PBFTCommit{
			View: s.view, Order: s.order, Replica: p.e.id, BatchDigest: s.batchDigest,
		}
		proof, err := p.e.sign(p.tx, com.Digest())
		if err == nil {
			com.Proof = proof
			s.commits[p.e.id] = true
			p.met.Commits.Inc()
			p.e.met.TraceD(telemetry.EvCommit, uint64(s.view), uint64(s.order), p.idx, s.batchDigest[:], "")
			transport.Multicast(p.e.ep, p.e.cfg.N, com)
		}
	}
	if !s.committed && s.prepared && len(s.commits) >= 2*f+1 {
		s.committed = true
	}
	if s.committed && !s.executed {
		s.executed = true
		p.met.Committed.Inc()
		p.e.met.TraceD(telemetry.EvDeliver, uint64(s.view), uint64(s.order), p.idx, s.batchDigest[:], "")
		credit := engine.NoCredit
		if p.e.cfg.ProposerOf(s.view, s.order) == p.e.id {
			credit = int32(p.idx)
		}
		p.e.exec.Deliver(s.order, s.prePrepare.Requests, credit)
	}
}

// --- checkpoints ---

func (p *pillar) handleCkptDue(ev evCkptDue) {
	ck := &message.PBFTCheckpoint{Order: ev.order, Replica: p.e.id, StateDigest: ev.digest}
	proof, err := p.e.sign(p.tx, ck.Digest())
	if err != nil {
		return
	}
	ck.Proof = proof
	p.ownCkpt[ev.order] = ck
	p.e.met.CkptsOwn.Inc()
	p.e.met.TraceD(telemetry.EvCheckpoint, uint64(p.view), uint64(ev.order), p.idx, ev.digest[:], "")
	transport.Multicast(p.e.ep, p.e.cfg.N, ck)
	p.addCheckpoint(ck)
}

func (p *pillar) handleCheckpoint(from uint32, m *message.PBFTCheckpoint) {
	if m.Replica != from {
		return
	}
	if !p.e.verify(p.tx, &m.Proof, m.Digest(), from) {
		return
	}
	p.addCheckpoint(m)
}

func (p *pillar) addCheckpoint(m *message.PBFTCheckpoint) {
	stable := p.ckpts.Add(m.Order, checkpoint.Announcement[*message.PBFTCheckpoint]{
		Replica: m.Replica, Digest: m.StateDigest, Msg: m,
	})
	if stable != nil {
		p.e.coord.inbox.Put(evStable{stable: stable})
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
	for k := range p.ownCkpt {
		if k <= o {
			delete(p.ownCkpt, k)
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
				s.prePrepare = pp
				s.batchDigest = pp.BatchDigest()
				p.progress(s)
			}
		} else {
			p.acceptPrePrepare(pp)
		}
	}
}

// handleTick retransmits this replica's message for the oldest
// uncommitted instance and any unstable checkpoint.
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
		if p.e.cfg.ProposerOf(oldest.view, oldest.order) == p.e.id {
			p.met.Retransmits.Inc()
			p.e.met.Trace(telemetry.EvRetransmit, uint64(oldest.view), uint64(oldest.order), p.idx, "")
			transport.Multicast(p.e.ep, p.e.cfg.N, oldest.prePrepare)
		} else if own, ok := oldest.prepares[p.e.id]; ok {
			p.met.Retransmits.Inc()
			p.e.met.Trace(telemetry.EvRetransmit, uint64(oldest.view), uint64(oldest.order), p.idx, "")
			transport.Multicast(p.e.ep, p.e.cfg.N, own)
		}
	}
	for o, ck := range p.ownCkpt {
		last := p.ckpts.Last()
		if last == nil || o > last.Order {
			transport.Multicast(p.e.ep, p.e.cfg.N, ck)
			break
		}
	}
}
