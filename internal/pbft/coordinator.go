package pbft

import (
	"time"

	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// stableCkpt is the record of the last stable checkpoint, announcement
// one replica's certified CHECKPOINT on its way to the quorum count.
type (
	stableCkpt   = engine.StableCkpt[*message.PBFTCheckpoint]
	announcement = engine.Announcement[*message.PBFTCheckpoint]
)

// coordinator runs the PBFT view-change protocol (VIEW-CHANGE carrying
// prepared certificates, NEW-VIEW with re-issued PRE-PREPAREs) and
// hosts the checkpoint sub-protocol and state transfer.
type coordinator struct {
	e  *Engine
	tx *trinx.TrInX // nil for PBFTcop

	// pendingSince is when the replica last aborted into its pending
	// view (engine.Host.Pending).
	pendingSince time.Time
	viewChanges  *telemetry.Counter

	// ck is the checkpoint sub-protocol and state transfer.
	ck *engine.Checkpoints[*message.PBFTCheckpoint]

	// vcs[v][replica] collects VIEW-CHANGEs for view v, this replica's
	// own included (it is what the tick retransmits).
	vcs    map[timeline.View]map[uint32]*message.PBFTViewChange
	lastNV *message.PBFTNewView
}

func newCoordinator(e *Engine, tx *trinx.TrInX) *coordinator {
	c := &coordinator{
		e:           e,
		tx:          tx,
		viewChanges: e.Met.Counter("view_changes_total", "view changes this replica initiated or joined"),
		vcs:         make(map[timeline.View]map[uint32]*message.PBFTViewChange),
	}
	c.ck = engine.NewCheckpoints(e.Host, func(m *message.PBFTCheckpoint) (announcement, error) {
		return e.verifyCheckpoint(tx, m)
	}, nil)
	return c
}

// standing fills the view-change fields of the replica's engine.Standing.
func (c *coordinator) standing(s *engine.Standing) {
	s.Desired = c.e.View()
	for r := range c.vcs[c.e.Pending] {
		s.VCHolders = append(s.VCHolders, r)
	}
}

// claim is the stable checkpoint vc claims, under the digest its
// proof's announcements name (a VIEW-CHANGE carries none of its own).
func claim(vc *message.PBFTViewChange) stableCkpt {
	st := stableCkpt{Order: vc.CkptOrder, Proof: vc.CkptProof}
	if len(vc.CkptProof) > 0 {
		st.Digest = vc.CkptProof[0].StateDigest
	}
	return st
}

// handleEvent is the Host's handler for the coordinator mailbox;
// checkpoint boundaries, announcements and Behind are the checkpoint
// sub-protocol's.
func (c *coordinator) handleEvent(ev any) {
	switch v := ev.(type) {
	case engine.InMsg:
		c.handleMessage(v.From, v.Msg)
	case engine.Tick:
		c.handleTick()
	default:
		c.ck.Handle(ev)
	}
}

func (c *coordinator) handleMessage(from uint32, m message.Message) {
	switch v := m.(type) {
	case *message.PBFTViewChange:
		c.handleViewChange(from, v)
	case *message.PBFTNewView:
		c.handleNewView(from, v)
	case *message.StateRequest:
		c.ck.Serve(from, v)
	case *message.StateReply:
		c.ck.Install(from, v)
	}
}

// --- view change ---

func (c *coordinator) handleTick() {
	c.e.ObserveExec(c.e.LastExecuted())
	c.ck.Tick()

	if c.e.Pending == 0 {
		c.e.Watch()
	} else {
		if now := c.e.Now(); now.Sub(c.pendingSince) > c.e.Patience() {
			// The pending view did not stabilize in time; escalate with
			// exponentially growing patience.
			c.pendingSince = now
			c.e.Escalate()
			c.startViewChange(c.e.Pending + 1)
		}
		if vc := c.vcs[c.e.Pending][c.e.ID()]; vc != nil {
			transport.Multicast(c.e.Ep, c.e.Cfg.N, vc)
		}
	}
}

// startViewChange aborts toward view "to": gather prepared proofs from
// all pillars and multicast the VIEW-CHANGE.
func (c *coordinator) startViewChange(to timeline.View) {
	if to <= max(c.e.View(), c.e.Pending) {
		return
	}
	var prepared []message.PreparedProof
	for _, box := range c.e.PillarBox {
		reply := make(chan []message.PreparedProof, 1)
		box.Put(evCollectVC{reply: reply})
		select {
		case proofs := <-reply:
			prepared = append(prepared, proofs...)
		case <-c.e.Stopped():
			return
		}
	}
	vc := &message.PBFTViewChange{
		Replica:   c.e.ID(),
		View:      to,
		CkptOrder: c.ck.Stable().Order,
		CkptProof: c.ck.Stable().Proof,
		Prepared:  prepared,
	}
	proof, err := c.e.sign(c.tx, vc.Digest())
	if err != nil {
		return
	}
	vc.Proof = proof
	c.e.Pending = to
	c.pendingSince = c.e.Now()
	c.viewChanges.Inc()
	c.e.Met.Trace(telemetry.EvViewChange, uint64(to), 0, 0, "")
	c.storeVC(vc)
	transport.Multicast(c.e.Ep, c.e.Cfg.N, vc)
	c.maybeEmitNewView(to)
}

// storeVC files vc, a peer's unless it already sent one for that view;
// our own newest replaces an earlier one for a view we installed below
// and then aborted into again.
func (c *coordinator) storeVC(vc *message.PBFTViewChange) {
	byReplica, ok := c.vcs[vc.View]
	if !ok {
		byReplica = make(map[uint32]*message.PBFTViewChange)
		c.vcs[vc.View] = byReplica
	}
	if _, dup := byReplica[vc.Replica]; !dup || vc.Replica == c.e.ID() {
		byReplica[vc.Replica] = vc
	}
}

// verifyViewChange validates a PBFT VIEW-CHANGE message.
func (c *coordinator) verifyViewChange(vc *message.PBFTViewChange) bool {
	if !c.e.verify(c.tx, &vc.Proof, vc.Digest(), vc.Replica) {
		return false
	}
	if st := claim(vc); c.ck.Certified(st.Order, st.Digest, st.Proof) != nil {
		return false
	}
	// Prepared proofs: PRE-PREPARE plus 2f matching PREPAREs each.
	f := c.e.Cfg.F()
	for _, pp := range vc.Prepared {
		ppre := pp.PrePrepare
		if ppre == nil {
			return false
		}
		proposer := c.e.Cfg.ProposerOf(ppre.View, ppre.Order)
		if !c.e.verify(c.tx, &ppre.Proof, ppre.Digest(), proposer) {
			return false
		}
		bd := ppre.BatchDigest()
		seen := make(map[uint32]bool)
		for _, prep := range pp.Prepares {
			if prep.View != ppre.View || prep.Order != ppre.Order || prep.BatchDigest != bd {
				return false
			}
			if prep.Replica == proposer || seen[prep.Replica] {
				return false
			}
			if !c.e.verify(c.tx, &prep.Proof, prep.Digest(), prep.Replica) {
				return false
			}
			seen[prep.Replica] = true
		}
		if len(seen) < 2*f {
			return false
		}
	}
	return true
}

func (c *coordinator) handleViewChange(from uint32, vc *message.PBFTViewChange) {
	if vc.Replica != from {
		return
	}
	if vc.View <= c.e.View() {
		c.relayNewView(from)
		return
	}
	if !c.verifyViewChange(vc) {
		return
	}
	c.storeVC(vc)

	// Join once f+1 replicas abort (PBFT's liveness rule).
	if len(c.vcs[vc.View]) > c.e.Cfg.F() {
		c.startViewChange(vc.View)
	}
	c.maybeEmitNewView(vc.View)
}

// computeTransfer derives the new view's starting checkpoint (the
// newest claimed, with its proof) and re-proposals from a quorum of
// view changes: for each order the prepared proof with the highest view
// wins; gaps become no-ops.
func computeTransfer(vcSet map[uint32]*message.PBFTViewChange) (stableCkpt, []*message.PrePrepare) {
	var start stableCkpt
	best := make(map[timeline.Order]*message.PrePrepare)
	for _, vc := range vcSet {
		if vc.CkptOrder > start.Order {
			start = claim(vc)
		}
		for _, pp := range vc.Prepared {
			cur, ok := best[pp.PrePrepare.Order]
			if !ok || pp.PrePrepare.View > cur.View {
				best[pp.PrePrepare.Order] = pp.PrePrepare
			}
		}
	}
	var maxO timeline.Order
	for o := range best {
		if o > maxO {
			maxO = o
		}
	}
	var out []*message.PrePrepare
	for o := start.Order + 1; o <= maxO; o++ {
		var reqs []*message.Request
		if pp, ok := best[o]; ok {
			reqs = pp.Requests
		}
		out = append(out, &message.PrePrepare{Order: o, Requests: reqs})
	}
	return start, out
}

func (c *coordinator) maybeEmitNewView(w timeline.View) {
	if c.e.Cfg.LeaderOf(w) != c.e.ID() || c.e.Pending != w || w == 0 {
		return
	}
	vcSet := c.vcs[w]
	if len(vcSet) < c.e.Cfg.Quorum() {
		return
	}
	start, templates := computeTransfer(vcSet)
	if start.Order > c.ck.Stable().Order {
		c.ck.Handle(engine.Behind{}) // the quorum is ahead of our state
		return
	}
	newPPs := make([]*message.PrePrepare, 0, len(templates))
	for _, t := range templates {
		pp := &message.PrePrepare{View: w, Order: t.Order, Requests: t.Requests}
		proof, err := c.e.sign(c.tx, pp.Digest())
		if err != nil {
			return
		}
		pp.Proof = proof
		newPPs = append(newPPs, pp)
	}
	nv := &message.PBFTNewView{View: w, PrePrepares: newPPs}
	for _, vc := range vcSet {
		nv.VCs = append(nv.VCs, vc)
	}
	proof, err := c.e.sign(c.tx, nv.Digest())
	if err != nil {
		return
	}
	nv.Proof = proof
	transport.Multicast(c.e.Ep, c.e.Cfg.N, nv)
	c.lastNV = nv
	c.install(w, start, newPPs, true)
}

// relayNewView sends the installed view's NEW-VIEW to a peer whose
// VIEW-CHANGE or SUSPECT for a view below it says it missed it.
func (c *coordinator) relayNewView(to uint32) {
	if c.lastNV != nil && c.lastNV.View == c.e.View() {
		_ = c.e.Ep.Send(to, c.lastNV)
	}
}

func (c *coordinator) handleNewView(from uint32, nv *message.PBFTNewView) {
	w := nv.View
	if w <= c.e.View() || from != c.e.Cfg.LeaderOf(w) {
		return
	}
	if !c.e.verify(c.tx, &nv.Proof, nv.Digest(), from) {
		return
	}
	vcSet := make(map[uint32]*message.PBFTViewChange)
	for _, vc := range nv.VCs {
		if vc.View != w || !c.verifyViewChange(vc) {
			return
		}
		vcSet[vc.Replica] = vc
	}
	if len(vcSet) < c.e.Cfg.Quorum() {
		return
	}
	start, templates := computeTransfer(vcSet)
	if len(templates) != len(nv.PrePrepares) {
		return
	}
	for i, t := range templates {
		pp := nv.PrePrepares[i]
		if pp.View != w || pp.Order != t.Order ||
			message.BatchDigest(pp.Requests) != message.BatchDigest(t.Requests) {
			return
		}
		if !c.e.verify(c.tx, &pp.Proof, pp.Digest(), from) {
			return
		}
	}
	c.lastNV = nv
	c.install(w, start, nv.PrePrepares, false)
}

// install enters view w through the engine's install step, then hands
// each pillar its re-issued PRE-PREPAREs and realigns the sequencer.
func (c *coordinator) install(w timeline.View, start stableCkpt, pps []*message.PrePrepare, leader bool) {
	c.ck.EnterView(w, start)
	pillars := uint32(len(c.e.pillars))
	byPillar := make([][]*message.PrePrepare, pillars)
	maxOrder := start.Order
	for _, pp := range pps {
		u := c.e.Cfg.PillarOf(pp.Order)
		byPillar[u] = append(byPillar[u], pp)
		if pp.Order > maxOrder {
			maxOrder = pp.Order
		}
	}
	for u, box := range c.e.PillarBox {
		box.Put(evInstallView{view: w, startCkpt: start.Order, prePrepares: byPillar[u], leader: leader})
	}
	for v := range c.vcs {
		if v <= w {
			delete(c.vcs, v)
		}
	}
	c.e.Seq.ResetForView(w, maxOrder)
}
