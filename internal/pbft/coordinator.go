package pbft

import (
	"errors"
	"time"

	"hybster/internal/checkpoint"
	"hybster/internal/cop"
	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// Events delivered to the coordinator mailbox (besides inbound messages
// and the execution stage's *statemachine.CheckpointView boundaries).
type (
	// evStable reports a checkpoint quorum from its owning pillar.
	evStable struct {
		stable *checkpoint.Stable[*message.PBFTCheckpoint]
	}
	// evBehind reports ordering traffic beyond the window.
	evBehind struct{}
)

// stableCkpt is the coordinator's record of the last stable checkpoint.
type stableCkpt = engine.StableCkpt[*message.PBFTCheckpoint]

// errUnknownState rejects transferred state that does not match the
// stable checkpoint this replica recorded.
var errUnknownState = errors.New("pbft: state reply does not match the stable checkpoint")

// coordinator runs PBFT's checkpoint bookkeeping, the PBFT view-change
// protocol (VIEW-CHANGE carrying prepared certificates, NEW-VIEW with
// re-issued PRE-PREPAREs), and state transfer.
type coordinator struct {
	e     *Engine
	tx    *trinx.TrInX // nil for PBFTcop
	inbox *cop.Mailbox[any]

	curView      timeline.View
	pending      bool
	pendingTo    timeline.View
	pendingSince time.Time
	viewChanges  *telemetry.Counter

	// ck holds the checkpoint candidates, the last stable checkpoint
	// and the state-transfer requester/server.
	ck *engine.Checkpoints[*message.PBFTCheckpoint]

	vcs    map[timeline.View]map[uint32]*message.PBFTViewChange
	ownVC  map[timeline.View]*message.PBFTViewChange
	nvDone map[timeline.View]bool
	lastNV *message.PBFTNewView
}

func newCoordinator(e *Engine, tx *trinx.TrInX) *coordinator {
	c := &coordinator{
		e:           e,
		tx:          tx,
		inbox:       cop.NewMailbox[any](),
		viewChanges: e.met.Counter("view_changes_total", "view changes this replica initiated or joined"),
		vcs:         make(map[timeline.View]map[uint32]*message.PBFTViewChange),
		ownVC:       make(map[timeline.View]*message.PBFTViewChange),
		nvDone:      make(map[timeline.View]bool),
	}
	// The STATE-REPLY wire format carries no PBFT checkpoint proof, so
	// accept only state matching a digest we know to be stable: our own
	// stable checkpoint or — during a view change — the checkpoint
	// claimed by a quorum of view-change messages and adopted in install.
	c.ck = engine.NewCheckpoints[*message.PBFTCheckpoint](e.cfg, e.id, e.ep, e.Watchdog, e.met, e.exec,
		func(o timeline.Order, d crypto.Digest, _ []*message.Checkpoint) error {
			if st := c.ck.Stable(); o != st.Order || d != st.Digest {
				return errUnknownState
			}
			return nil
		})
	return c
}

func (c *coordinator) run() {
	for {
		ev, ok := c.inbox.Get()
		if !ok {
			return
		}
		switch v := ev.(type) {
		case engine.InMsg:
			c.handleMessage(v.From, v.Msg)
		case *statemachine.CheckpointView:
			c.handleCandidate(v)
		case evStable:
			c.handleStable(v.stable)
		case evBehind:
			c.ck.RequestState()
		case engine.Tick:
			c.handleTick()
		}
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
		c.handleStateReply(v)
	}
}

// --- checkpoints ---

// handleCandidate stores execution state for a checkpoint boundary
// posted by the execution stage and dispatches the checkpoint protocol
// instance to its round-robin owner pillar.
func (c *coordinator) handleCandidate(v *statemachine.CheckpointView) {
	if digest, ahead := c.ck.Candidate(v); ahead {
		owner := c.e.cfg.CheckpointPillar(v.Order) % uint32(len(c.e.pillars))
		c.e.pillars[owner].inbox.Put(evCkptDue{order: v.Order, digest: digest})
	}
}

// handleStable records a stable checkpoint, slides every pillar's
// window, and triggers state transfer if execution is behind.
func (c *coordinator) handleStable(s *checkpoint.Stable[*message.PBFTCheckpoint]) {
	if !c.ck.Adopt(stableCkpt{Order: s.Order, Digest: s.Digest, Proof: s.Proof}) {
		return
	}
	c.e.met.CkptsStable.Inc()
	c.e.met.TraceD(telemetry.EvCkptStable, uint64(c.curView), uint64(s.Order), 0, s.Digest[:], "")
	c.advancePillars(s.Order)
	c.ck.CatchUp()
}

func (c *coordinator) advancePillars(o timeline.Order) {
	for _, p := range c.e.pillars {
		p.inbox.Put(evAdvance{order: o})
	}
}

// handleStateReply installs transferred state for the stable
// checkpoint and lets the pillars skip to it.
func (c *coordinator) handleStateReply(rep *message.StateReply) {
	if installed, _ := c.ck.Install(rep, c.curView); installed {
		c.advancePillars(rep.CkptOrder)
	}
}

// --- view change ---

func (c *coordinator) handleTick() {
	for _, p := range c.e.pillars {
		p.inbox.Put(engine.Tick{})
	}
	c.e.ObserveExec(c.e.exec.LastExecuted())
	c.ck.CatchUp()

	if !c.pending {
		if stalled := c.e.Stalled(); stalled > c.e.cfg.ViewChangeTimeout {
			c.startViewChange(c.curView + 1)
		} else if stalled > c.e.cfg.ViewChangeTimeout/8 {
			c.e.seq.ProposeNoop(c.curView, c.e.exec.LastExecuted()+1)
		}
	} else {
		if now := c.e.Now(); now.Sub(c.pendingSince) > c.e.Patience() {
			// The pending view did not stabilize in time; escalate with
			// exponentially growing patience.
			c.pendingSince = now
			c.e.Escalate()
			c.startViewChange(c.pendingTo + 1)
		}
		if vc, ok := c.ownVC[c.pendingTo]; ok {
			transport.Multicast(c.e.ep, c.e.cfg.N, vc)
		}
	}
}

// startViewChange aborts toward view "to": gather prepared proofs from
// all pillars and multicast the VIEW-CHANGE.
func (c *coordinator) startViewChange(to timeline.View) {
	if to <= c.curView || (c.pending && to <= c.pendingTo) {
		return
	}
	var prepared []message.PreparedProof
	for _, p := range c.e.pillars {
		reply := make(chan []message.PreparedProof, 1)
		p.inbox.Put(evCollectVC{reply: reply})
		select {
		case proofs := <-reply:
			prepared = append(prepared, proofs...)
		case <-c.e.stopped:
			return
		}
	}
	vc := &message.PBFTViewChange{
		Replica:   c.e.id,
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
	c.pending = true
	c.pendingTo = to
	c.pendingSince = c.e.Now()
	c.viewChanges.Inc()
	c.e.met.Trace(telemetry.EvViewChange, uint64(to), 0, 0, "")
	c.ownVC = map[timeline.View]*message.PBFTViewChange{to: vc}
	c.storeVC(vc)
	transport.Multicast(c.e.ep, c.e.cfg.N, vc)
	c.maybeEmitNewView(to)
}

func (c *coordinator) storeVC(vc *message.PBFTViewChange) {
	byReplica, ok := c.vcs[vc.View]
	if !ok {
		byReplica = make(map[uint32]*message.PBFTViewChange)
		c.vcs[vc.View] = byReplica
	}
	if _, dup := byReplica[vc.Replica]; !dup {
		byReplica[vc.Replica] = vc
	}
}

// verifyViewChange validates a PBFT VIEW-CHANGE message.
func (c *coordinator) verifyViewChange(vc *message.PBFTViewChange) bool {
	if !c.e.verify(c.tx, &vc.Proof, vc.Digest(), vc.Replica) {
		return false
	}
	// Checkpoint proof: quorum of valid checkpoint messages for the
	// claimed order with one digest.
	if vc.CkptOrder > 0 {
		seen := make(map[uint32]bool)
		var dig crypto.Digest
		for i, ck := range vc.CkptProof {
			if ck.Order != vc.CkptOrder || seen[ck.Replica] {
				return false
			}
			if i == 0 {
				dig = ck.StateDigest
			} else if ck.StateDigest != dig {
				return false
			}
			if !c.e.verify(c.tx, &ck.Proof, ck.Digest(), ck.Replica) {
				return false
			}
			seen[ck.Replica] = true
		}
		if len(seen) < c.e.cfg.Quorum() {
			return false
		}
	}
	// Prepared proofs: PRE-PREPARE plus 2f matching PREPAREs each.
	f := c.e.cfg.F()
	for _, pp := range vc.Prepared {
		ppre := pp.PrePrepare
		if ppre == nil {
			return false
		}
		proposer := c.e.cfg.ProposerOf(ppre.View, ppre.Order)
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
	if vc.View <= c.curView {
		if c.lastNV != nil && c.lastNV.View == c.curView {
			_ = c.e.ep.Send(from, c.lastNV)
		}
		return
	}
	if !c.verifyViewChange(vc) {
		return
	}
	c.storeVC(vc)

	// Join once f+1 replicas abort (PBFT's liveness rule).
	if len(c.vcs[vc.View]) > c.e.cfg.F() && (!c.pending || c.pendingTo < vc.View) {
		c.startViewChange(vc.View)
	}
	if c.e.cfg.LeaderOf(vc.View) == c.e.id {
		c.maybeEmitNewView(vc.View)
	}
}

// computeTransfer derives the new view's starting checkpoint and
// re-proposals from a quorum of view changes: for each order the
// prepared proof with the highest view wins; gaps become no-ops.
func computeTransfer(vcSet map[uint32]*message.PBFTViewChange) (timeline.Order, []*message.PrePrepare) {
	var startCkpt timeline.Order
	best := make(map[timeline.Order]*message.PrePrepare)
	for _, vc := range vcSet {
		if vc.CkptOrder > startCkpt {
			startCkpt = vc.CkptOrder
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
	for o := startCkpt + 1; o <= maxO; o++ {
		var reqs []*message.Request
		if pp, ok := best[o]; ok {
			reqs = pp.Requests
		}
		out = append(out, &message.PrePrepare{Order: o, Requests: reqs})
	}
	return startCkpt, out
}

func (c *coordinator) maybeEmitNewView(w timeline.View) {
	if c.nvDone[w] || c.e.cfg.LeaderOf(w) != c.e.id {
		return
	}
	if !c.pending || c.pendingTo != w {
		return
	}
	vcSet := c.vcs[w]
	if len(vcSet) < c.e.cfg.Quorum() {
		return
	}
	startCkpt, templates := computeTransfer(vcSet)
	if startCkpt > c.ck.Stable().Order {
		c.ck.RequestState()
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
	transport.Multicast(c.e.ep, c.e.cfg.N, nv)
	c.nvDone[w] = true
	c.lastNV = nv
	c.install(w, startCkpt, newPPs, true)
}

func (c *coordinator) handleNewView(from uint32, nv *message.PBFTNewView) {
	w := nv.View
	if w <= c.curView || from != c.e.cfg.LeaderOf(w) {
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
	if len(vcSet) < c.e.cfg.Quorum() {
		return
	}
	startCkpt, templates := computeTransfer(vcSet)
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
	c.install(w, startCkpt, nv.PrePrepares, false)
}

func (c *coordinator) install(w timeline.View, startCkpt timeline.Order, pps []*message.PrePrepare, leader bool) {
	c.curView = w
	c.e.curView.Store(uint64(w))
	c.e.met.Trace(telemetry.EvNewView, uint64(w), uint64(startCkpt), 0, "")
	c.pending = false
	c.pendingTo = 0

	if startCkpt > c.ck.Stable().Order {
		// Adopt the quorum's checkpoint claim; the state itself comes
		// through state transfer.
		for _, vcSet := range c.vcs {
			for _, vc := range vcSet {
				if vc.CkptOrder == startCkpt && len(vc.CkptProof) > 0 {
					c.ck.Adopt(stableCkpt{Order: startCkpt, Digest: vc.CkptProof[0].StateDigest, Proof: vc.CkptProof})
				}
			}
		}
		c.ck.CatchUp()
	}

	pillars := uint32(len(c.e.pillars))
	byPillar := make([][]*message.PrePrepare, pillars)
	var maxOrder timeline.Order = startCkpt
	for _, pp := range pps {
		u := c.e.cfg.PillarOf(pp.Order) % pillars
		byPillar[u] = append(byPillar[u], pp)
		if pp.Order > maxOrder {
			maxOrder = pp.Order
		}
	}
	for u, p := range c.e.pillars {
		p.inbox.Put(evInstallView{view: w, startCkpt: startCkpt, prePrepares: byPillar[u], leader: leader})
	}
	for v := range c.vcs {
		if v <= w {
			delete(c.vcs, v)
		}
	}
	for v := range c.nvDone {
		if v < w {
			delete(c.nvDone, v)
		}
	}
	c.e.seq.ResetForView(w, maxOrder)
	c.e.NoteProgress(false)
}
