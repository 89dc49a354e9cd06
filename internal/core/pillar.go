package core

import (
	"errors"

	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// Events delivered to pillar mailboxes besides those of internal/engine
// (inbound protocol messages in engine.InMsg, the sequencer's
// engine.Propose, the checkpoint sub-protocol's engine.CkptDue and
// engine.Advance, and engine.Tick, which drives retransmission).
type (
	// evCollectVC asks the pillar for its part of a VIEW-CHANGE
	// message and suspends ordering (§5.3.3, local view-change
	// preparation).
	evCollectVC struct {
		from      timeline.View
		to        timeline.View
		ckptOrder timeline.Order
		ckptDig   [32]byte
		ckptProof []*message.Checkpoint
		// learned carries coordinator-learned prepares of this
		// pillar's class to propagate.
		learned []*message.Prepare
		reply   chan *message.ViewChange
	}
	// evRepropose asks the (new-leader) pillar to certify re-proposals
	// for the new view.
	evRepropose struct {
		view  timeline.View
		props []reProposal
		reply chan []*message.Prepare
	}
	// evInstallView installs a stable new view on the pillar.
	evInstallView struct {
		view      timeline.View
		startCkpt timeline.Order
		// prepares are the verified re-proposals of this pillar's
		// class, ascending.
		prepares []*message.Prepare
		leader   bool // true when this replica produced the prepares
	}
)

// reProposal is one instance the new leader transfers into its view.
type reProposal struct {
	order timeline.Order
	batch []*message.Request
}

// pillar is one processing unit of the consensus-oriented
// parallelization: it owns the consensus instances of its order-number
// class (o mod P == idx), a private TrInX instance and a private
// ordering window, and certifies the checkpoint instances it is the
// round-robin owner of. All state is confined to the goroutine draining
// its mailbox.
type pillar struct {
	e   *Engine
	idx uint32
	tx  Certifier
	met engine.OrderingMetrics

	view    timeline.View
	aborted bool
	win     *window

	// cursor is the next class order this pillar will certify; the
	// trusted counter forces ascending certification within the
	// pillar's timeline.
	cursor timeline.Order
	// pendingProps holds own proposals waiting for the cursor.
	pendingProps map[timeline.Order]engine.Propose
	// pendingPreps holds verified foreign prepares waiting for the
	// cursor.
	pendingPreps map[timeline.Order]*message.Prepare
	// ownMsg retains this pillar's sent ordering message per order
	// for retransmission; garbage collected with the window.
	ownMsg map[timeline.Order]message.Message
}

func newPillar(e *Engine, idx uint32, tx Certifier) *pillar {
	p := &pillar{
		e:            e,
		idx:          idx,
		tx:           tx,
		met:          e.Met.Ordering(engine.PillarLabel(idx)),
		win:          newWindow(e.Cfg.WindowSize, e.Cfg.Quorum()),
		pendingProps: make(map[timeline.Order]engine.Propose),
		pendingPreps: make(map[timeline.Order]*message.Prepare),
		ownMsg:       make(map[timeline.Order]message.Message),
	}
	// A replica booted from its log starts past the replayed orders: its
	// counters resumed beyond them, so it cannot certify them again.
	p.cursor = p.firstClassOrder(e.LastExecuted())
	return p
}

// firstClassOrder returns the smallest order > after belonging to this
// pillar's class.
func (p *pillar) firstClassOrder(after timeline.Order) timeline.Order {
	o := after + 1
	for p.e.Cfg.PillarOf(o) != p.idx {
		o++
	}
	return o
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
		p.processReady() // a proposal parked above the old window may be due
	case evCollectVC:
		p.handleCollectVC(v)
	case evRepropose:
		p.handleRepropose(v)
	case evInstallView:
		p.handleInstallView(v)
	case engine.Tick:
		p.handleTick()
	}
}

func (p *pillar) handleMessage(in engine.InMsg) {
	switch v := in.Msg.(type) {
	case *message.Prepare:
		p.handlePrepare(in.From, v)
	case *message.Commit:
		p.handleCommit(in.From, v)
	case *message.Checkpoint:
		p.handleCheckpoint(in.From, v)
	}
}

// handlePrepare processes a leader proposal for one of this pillar's
// instances; the Host's inbound route delivered it only because every
// client authenticator of its batch verified. A PREPARE the cursor has
// reached is acknowledged as it arrives; one that must wait is verified
// now and parked, so that only a verified PREPARE can hold its order's
// place against the genuine one.
func (p *pillar) handlePrepare(from uint32, m *message.Prepare) {
	if m.View != p.view || p.aborted {
		return
	}
	if m.Order > p.win.High() {
		p.e.CoordBox.Put(engine.Behind{})
		return
	}
	if !p.win.InWindow(m.Order) || m.Order < p.cursor {
		return // already processed or obsolete
	}
	if _, dup := p.pendingPreps[m.Order]; dup {
		return
	}
	if _, own := p.pendingProps[m.Order]; m.Order == p.cursor && !own && p.acknowledgeOnArrival(from, m) {
		return
	}
	if err := p.e.verifyPrepare(p.tx, m, from); err != nil {
		return
	}
	p.e.NoteWork()
	p.pendingPreps[m.Order] = m
	p.processReady()
}

// acknowledgeOnArrival acknowledges a PREPARE at the cursor with one
// enclave transition: checkPrepare's checks, then VerifyCreateIndependent
// checks the PREPARE's MAC and certifies the COMMIT only if it holds. A
// PREPARE whose MAC fails leaves no trace — no slot, no counter or
// cursor move — so the genuine one is acknowledged when it comes. It
// reports whether it is done with m; it is not when the enclave refused
// the COMMIT's counter value or could not seal, and then the two-call
// path records the verified PREPARE as it always has.
func (p *pillar) acknowledgeOnArrival(from uint32, m *message.Prepare) bool {
	if p.e.checkPrepare(m, from) != nil {
		return true
	}
	com := p.commitFor(m)
	cert, err := p.tx.VerifyCreateIndependent(m.Cert, m.Digest(), counterO, uint64(timeline.Pack(m.View, m.Order)), com.Digest())
	if err != nil {
		return errors.Is(err, trinx.ErrBadCertificate)
	}
	p.e.NoteWork()
	if s := p.win.SetPrepare(m); s != nil {
		p.multicastCommit(s, com, cert)
	}
	p.cursor = p.firstClassOrder(m.Order)
	p.processReady()
	return true
}

// handleCommit processes a follower acknowledgment. A COMMIT for an
// instance already committed in the COMMIT's view cannot change
// anything and is dropped before it costs an enclave transition.
func (p *pillar) handleCommit(from uint32, m *message.Commit) {
	if m.View != p.view || p.aborted {
		return
	}
	if m.Order > p.win.High() {
		p.e.CoordBox.Put(engine.Behind{})
		return
	}
	if !p.win.InWindow(m.Order) {
		return
	}
	if m.Replica != from {
		return
	}
	if s := p.win.Existing(m.Order); s != nil && s.View == m.View && s.Committed {
		return
	}
	if err := p.e.verifyCommit(p.tx, m); err != nil {
		return
	}
	s := p.win.AddCommit(m)
	p.maybeDeliver(s)
}

// handlePropose certifies and multicasts an own proposal once the
// cursor permits. The sequencer numbers proposals without looking at
// the window, so one above it is parked like any other until the
// window's advance lets the cursor reach it; dropping it would lose its
// batch until its clients retransmit.
func (p *pillar) handlePropose(ev engine.Propose) {
	if ev.View != p.view || p.aborted {
		// Stale proposal from before a view change; requests are
		// re-proposed by the sequencer after the new view installs,
		// so return the flow-control credit and drop.
		p.e.Seq.Credit(len(ev.Batch))
		return
	}
	if ev.Order < p.cursor || ev.Order <= p.win.Low() {
		p.e.Seq.Credit(len(ev.Batch))
		return
	}
	p.pendingProps[ev.Order] = ev
	p.processReady()
}

// processReady certifies instances in ascending class order: own
// proposals become PREPAREs, foreign proposals are acknowledged with
// COMMITs. The cursor only advances when the next class instance is
// actionable — the per-pillar virtual timeline of §3.
func (p *pillar) processReady() {
	for {
		o := p.cursor
		if o > p.win.High() {
			return
		}
		if ev, ok := p.pendingProps[o]; ok {
			delete(p.pendingProps, o)
			p.sendPrepare(ev)
		} else if m, ok := p.pendingPreps[o]; ok {
			delete(p.pendingPreps, o)
			p.sendCommit(m)
		} else {
			return
		}
		p.cursor = p.firstClassOrder(o)
	}
}

// sendPrepare issues the independent counter certificate
// τ(r(u), O, v|o, −) and multicasts the proposal (§5.2.1).
func (p *pillar) sendPrepare(ev engine.Propose) {
	prep := &message.Prepare{View: ev.View, Order: ev.Order, Requests: ev.Batch}
	cert, err := p.tx.CreateIndependent(counterO, uint64(timeline.Pack(ev.View, ev.Order)), prep.Digest())
	if err != nil {
		p.e.Seq.Credit(len(ev.Batch))
		return // counter already beyond this instance (view changed)
	}
	prep.Cert = cert
	s := p.win.SetPrepare(prep)
	p.ownMsg[ev.Order] = prep
	p.met.Prepares.Inc()
	bd := prep.BatchDigest()
	p.e.Met.TraceD(telemetry.EvPropose, uint64(ev.View), uint64(ev.Order), p.idx, bd[:], "")
	transport.Multicast(p.e.Ep, p.e.Cfg.N, prep)
	p.maybeDeliver(s)
}

// sendCommit acknowledges a verified foreign prepare — a parked one or
// a NEW-VIEW re-proposal — with an independent counter certificate over
// the same value.
func (p *pillar) sendCommit(m *message.Prepare) {
	s := p.win.SetPrepare(m)
	if s == nil {
		return
	}
	com := p.commitFor(m)
	cert, err := p.tx.CreateIndependent(counterO, uint64(timeline.Pack(m.View, m.Order)), com.Digest())
	if err != nil {
		return
	}
	p.multicastCommit(s, com, cert)
}

// commitFor is this replica's (uncertified) COMMIT for prepare m.
func (p *pillar) commitFor(m *message.Prepare) *message.Commit {
	return &message.Commit{View: m.View, Order: m.Order, Replica: p.e.ID(), BatchDigest: m.BatchDigest()}
}

// multicastCommit records this replica's certified COMMIT in its slot
// and sends it.
func (p *pillar) multicastCommit(s *slot, com *message.Commit, cert trinx.Certificate) {
	com.Cert = cert
	s.AddOwnAck(p.e.ID())
	p.win.Refresh(s)
	p.ownMsg[com.Order] = com
	p.met.Commits.Inc()
	p.e.Met.TraceD(telemetry.EvCommit, uint64(com.View), uint64(com.Order), p.idx, com.BatchDigest[:], "")
	transport.Multicast(p.e.Ep, p.e.Cfg.N, com)
	p.maybeDeliver(s)
}

// maybeDeliver forwards a freshly committed instance to the execution
// stage and returns flow-control credit for own proposals.
func (p *pillar) maybeDeliver(s *slot) {
	if s == nil || !s.Committed || s.Executed {
		return
	}
	s.Executed = true
	p.met.Committed.Inc()
	p.e.Met.TraceD(telemetry.EvDeliver, uint64(s.Prepare.View), uint64(s.Order), p.idx, s.BatchDigest[:], "")
	p.e.Decide(s.Prepare.View, s.Order, s.Prepare.Requests, s.Prepare.Cert.Issuer.Replica() == p.e.ID())
}

// handleCkptDue runs this pillar's checkpoint protocol instance
// (§5.3.2): announce the digest with a trusted MAC certificate.
func (p *pillar) handleCkptDue(ev engine.CkptDue) {
	ck := &message.Checkpoint{Order: ev.Order, Replica: p.e.ID(), StateDigest: ev.Digest}
	cert, err := p.tx.CreateTrustedMAC(counterM, ck.Digest())
	if err != nil {
		return
	}
	ck.Cert = cert
	p.e.coord.ck.Announce(p.idx, p.view, announcement{Replica: ck.Replica, Order: ck.Order, Digest: ck.StateDigest, Msg: ck})
}

// handleCheckpoint verifies a peer's checkpoint announcement and hands
// it to the coordinator, which counts the quorum.
func (p *pillar) handleCheckpoint(from uint32, m *message.Checkpoint) {
	if m.Replica != from {
		return
	}
	if a, err := p.e.verifyCheckpoint(p.tx, m); err == nil {
		p.e.CoordBox.Put(a)
	}
}

// advance slides the ordering window to a stable checkpoint and
// discards retransmission state below it.
func (p *pillar) advance(o timeline.Order) {
	p.win.Advance(o)
	for k := range p.ownMsg {
		if k <= o {
			delete(p.ownMsg, k)
		}
	}
	for k, ev := range p.pendingProps {
		if k <= o {
			p.e.Seq.Credit(len(ev.Batch))
			delete(p.pendingProps, k)
		}
	}
	for k := range p.pendingPreps {
		if k <= o {
			delete(p.pendingPreps, k)
		}
	}
	if p.cursor <= o {
		p.cursor = p.firstClassOrder(o)
	}
}

// handleCollectVC produces this pillar's VIEW-CHANGE part: the
// PREPAREs of all window instances it participated in plus learned
// re-proposals, bound by the continuing counter certificate
// τ(r(u), O, to|0, view|o_act) that makes concealment impossible
// (§5.2.3). Ordering is suspended until a new view installs.
func (p *pillar) handleCollectVC(ev evCollectVC) {
	prepares := mergePrepares(p.win.Prepares(), ev.learned)
	vc := &message.ViewChange{
		Replica: p.e.ID(), Pillar: p.idx,
		From: ev.from, To: ev.to,
		CkptOrder: ev.ckptOrder, CkptDigest: ev.ckptDig, CkptProof: ev.ckptProof,
		Prepares: prepares,
	}
	cert, err := p.tx.CreateContinuing(counterO, uint64(timeline.ViewStart(ev.to)), vc.Digest())
	if err != nil {
		// The counter is already at or beyond to|0 (e.g. duplicate
		// collection); certify with a fresh continuing cert at the
		// current value by retrying at the counter's own value. This
		// cannot happen for monotonically increasing targets; treat
		// as fatal for this collection.
		ev.reply <- nil
		return
	}
	vc.Cert = cert
	p.aborted = true
	p.pendingProps = make(map[timeline.Order]engine.Propose)
	p.pendingPreps = make(map[timeline.Order]*message.Prepare)
	ev.reply <- vc
}

// handleRepropose certifies the new leader's re-proposals for the new
// view; the pillar's counter is at [view|0] after its own VIEW-CHANGE,
// so the ascending [view|o] values are accepted.
func (p *pillar) handleRepropose(ev evRepropose) {
	out := make([]*message.Prepare, 0, len(ev.props))
	for _, rp := range ev.props {
		prep := &message.Prepare{View: ev.view, Order: rp.order, Requests: rp.batch}
		cert, err := p.tx.CreateIndependent(counterO, uint64(timeline.Pack(ev.view, rp.order)), prep.Digest())
		if err != nil {
			ev.reply <- nil
			return
		}
		prep.Cert = cert
		out = append(out, prep)
	}
	ev.reply <- out
}

// handleInstallView enters a stable new view: slide the window to the
// new-view checkpoint, adopt the re-proposals (acknowledging them as a
// follower), and resume ordering after the re-proposed range.
func (p *pillar) handleInstallView(ev evInstallView) {
	p.aborted = false
	p.view = ev.view
	p.advance(ev.startCkpt)
	p.pendingProps = make(map[timeline.Order]engine.Propose)
	p.pendingPreps = make(map[timeline.Order]*message.Prepare)
	p.cursor = p.firstClassOrder(p.win.Low())

	for _, prep := range ev.prepares {
		if !p.win.InWindow(prep.Order) {
			continue
		}
		if ev.leader {
			s := p.win.SetPrepare(prep)
			p.ownMsg[prep.Order] = prep
			p.maybeDeliver(s)
		} else {
			p.pendingPreps[prep.Order] = prep
		}
		if prep.Order >= p.cursor && ev.leader {
			p.cursor = p.firstClassOrder(prep.Order)
		}
	}
	if !ev.leader {
		p.processReady()
	}
}

// handleTick retransmits the oldest outstanding own messages; this
// provides liveness across healed partitions and lost messages.
func (p *pillar) handleTick() {
	if p.aborted {
		return
	}
	// Oldest uncommitted instance we sent a message for.
	for o := p.win.Low() + 1; o < p.cursor; o++ {
		s := p.win.Existing(o)
		if s == nil || s.Committed {
			continue
		}
		if m, ok := p.ownMsg[o]; ok {
			p.met.Retransmits.Inc()
			p.e.Met.Trace(telemetry.EvRetransmit, uint64(p.view), uint64(o), p.idx, "")
			transport.Multicast(p.e.Ep, p.e.Cfg.N, m)
		}
		break // one per tick is enough
	}
}

// mergePrepares combines window prepares with learned prepares,
// keeping the highest-view prepare per order, ascending.
func mergePrepares(a, b []*message.Prepare) []*message.Prepare {
	if len(b) == 0 {
		return a
	}
	byOrder := make(map[timeline.Order]*message.Prepare, len(a)+len(b))
	keepHighest(byOrder, a, 0)
	keepHighest(byOrder, b, 0)
	out := make([]*message.Prepare, 0, len(byOrder))
	for _, p := range byOrder {
		out = append(out, p)
	}
	sortPrepares(out)
	return out
}
