package core

import (
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
)

// Events delivered to the coordinator mailbox (besides inbound messages
// and the execution stage's *statemachine.CheckpointView boundaries).
type (
	// evStable reports a checkpoint quorum from its owning pillar.
	evStable struct {
		stable *checkpoint.Stable[*message.Checkpoint]
	}
	// evBehind reports ordering traffic beyond the window — evidence
	// that this replica has fallen behind the group.
	evBehind struct{ order timeline.Order }
)

// stableCkpt is the coordinator's record of the last stable checkpoint.
type stableCkpt = engine.StableCkpt[*message.Checkpoint]

// coordinator runs the replica-local side of checkpointing (§5.3.2),
// the distributed view change (§5.2.3, §5.3.3), and state transfer. It
// is a single event loop; all fields below are confined to it.
type coordinator struct {
	e     *Engine
	tx    Certifier
	inbox *cop.Mailbox[any]

	curView      timeline.View
	pending      bool
	pendingTo    timeline.View
	pendingSince time.Time
	desired      timeline.View // highest view we have evidence for
	viewChanges  *telemetry.Counter

	// ck holds the checkpoint candidates, the last stable checkpoint
	// and the state-transfer requester/server.
	ck *engine.Checkpoints[*message.Checkpoint]

	// vcs[v][replica][pillar] collects VIEW-CHANGE parts for view v; a
	// logical view change is complete when all pillar parts arrived.
	vcs map[timeline.View]map[uint32][]*message.ViewChange
	// acks[v][replica][pillar] collects NEW-VIEW-ACK parts for view v.
	acks map[timeline.View]map[uint32][]*message.NewViewAck
	// ownVC retains our own parts for retransmission.
	ownVC map[timeline.View][]*message.ViewChange
	// nvParts[v][pillar] collects NEW-VIEW parts from the leader of v.
	nvParts map[timeline.View][]*message.NewView
	// lastNV are the parts of the most recently installed or emitted
	// NEW-VIEW, re-sent to laggards.
	lastNV []*message.NewView
	// nvEmitted marks views we already led a NEW-VIEW for.
	nvEmitted map[timeline.View]bool
	// learned maps order numbers to the highest-view prepare this
	// replica learned through view-change certificates, NEW-VIEWs, and
	// acknowledgments; propagated in future VIEW-CHANGEs (§5.2.3).
	learned map[timeline.Order]*message.Prepare
}

// gapDelay is how long execution may stall on an unproposed order
// before its proposer fills it with a no-op.
func (c *coordinator) gapDelay() time.Duration {
	return c.e.cfg.ViewChangeTimeout / 8
}

func newCoordinator(e *Engine, tx Certifier) *coordinator {
	c := &coordinator{
		e:           e,
		tx:          tx,
		inbox:       cop.NewMailbox[any](),
		viewChanges: e.met.Counter("view_changes_total", "view changes this replica initiated or joined"),
		vcs:         make(map[timeline.View]map[uint32][]*message.ViewChange),
		acks:        make(map[timeline.View]map[uint32][]*message.NewViewAck),
		ownVC:       make(map[timeline.View][]*message.ViewChange),
		nvParts:     make(map[timeline.View][]*message.NewView),
		nvEmitted:   make(map[timeline.View]bool),
		learned:     make(map[timeline.Order]*message.Prepare),
	}
	c.ck = engine.NewCheckpoints[*message.Checkpoint](e.cfg, e.id, e.ep, e.Watchdog, e.met, e.exec,
		func(o timeline.Order, d crypto.Digest, proof []*message.Checkpoint) error {
			return e.verifyCheckpointProof(tx, o, d, proof)
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
	case *message.ViewChange:
		c.handleViewChange(from, v)
	case *message.NewView:
		c.handleNewView(from, v)
	case *message.NewViewAck:
		c.handleNewViewAck(from, v)
	case *message.StateRequest:
		c.ck.Serve(from, v)
	case *message.StateReply:
		c.handleStateReply(v)
	}
}

// --- checkpointing ----------------------------------------------------------

// handleCandidate stores execution state for a checkpoint boundary
// posted by the execution stage and dispatches the checkpoint protocol
// instance to its round-robin owner pillar (§5.3.2).
func (c *coordinator) handleCandidate(v *statemachine.CheckpointView) {
	if digest, ahead := c.ck.Candidate(v); ahead {
		owner := c.e.cfg.CheckpointPillar(v.Order) % uint32(len(c.e.pillars))
		c.e.pillars[owner].inbox.Put(evCkptDue{order: v.Order, digest: digest})
	}
}

// handleStable records a stable checkpoint, slides every pillar's
// window, and triggers state transfer if execution is behind the
// group.
func (c *coordinator) handleStable(s *checkpoint.Stable[*message.Checkpoint]) {
	if !c.ck.Adopt(stableCkpt{Order: s.Order, Digest: s.Digest, Proof: s.Proof}) {
		return
	}
	c.e.met.CkptsStable.Inc()
	c.e.met.TraceD(telemetry.EvCkptStable, uint64(c.curView), uint64(s.Order), 0, s.Digest[:], "")
	c.stableAdvanced()
	c.ck.CatchUp()
}

// stableAdvanced propagates a newly recorded stable checkpoint: to the
// WAL, the learned set and every pillar's window.
func (c *coordinator) stableAdvanced() {
	st := c.ck.Stable()
	c.e.logCheckpoint(st)
	for o := range c.learned {
		if o <= st.Order {
			delete(c.learned, o)
		}
	}
	for _, p := range c.e.pillars {
		p.inbox.Put(evAdvance{order: st.Order})
	}
}

// handleStateReply installs transferred state; a checkpoint newer than
// the recorded one becomes the stable checkpoint.
func (c *coordinator) handleStateReply(rep *message.StateReply) {
	if _, adopted := c.ck.Install(rep, c.curView); adopted {
		c.stableAdvanced()
	}
}

// --- view change ---------------------------------------------------------------

// handleTick drives the watchdog, escalation, gap filling, and
// retransmission.
func (c *coordinator) handleTick() {
	for _, p := range c.e.pillars {
		p.inbox.Put(engine.Tick{})
	}
	c.e.ObserveExec(c.e.exec.LastExecuted())
	c.ck.CatchUp()

	if !c.pending {
		// Watchdog: outstanding work without execution progress for a
		// full timeout means the current configuration is stuck.
		if stalled := c.e.Stalled(); stalled > c.e.cfg.ViewChangeTimeout {
			c.bumpDesired(c.curView + 1)
		} else if stalled > c.gapDelay() {
			// Gap filling: if execution waits on an order we own and
			// never proposed, close it with a no-op (§5.3.1).
			c.e.seq.ProposeNoop(c.curView, c.e.exec.LastExecuted()+1)
		}
	} else {
		if now := c.e.Now(); now.Sub(c.pendingSince) > c.e.Patience() {
			// The pending view did not stabilize in time; escalate with
			// exponentially growing patience.
			c.pendingSince = now
			c.e.Escalate()
			c.bumpDesired(c.pendingTo + 1)
		}
		// Retransmit our VIEW-CHANGE parts.
		if parts, ok := c.ownVC[c.pendingTo]; ok {
			for _, vc := range parts {
				transport.Multicast(c.e.ep, c.e.cfg.N, vc)
			}
		}
	}
	c.tryAdvanceView()
}

// bumpDesired raises the view this replica wants to reach.
func (c *coordinator) bumpDesired(v timeline.View) {
	if v > c.desired {
		c.desired = v
	}
}

// haveVCQuorum reports whether a view-change certificate — a quorum of
// complete logical VIEW-CHANGEs — exists for view v (§5.2.3).
func (c *coordinator) haveVCQuorum(v timeline.View) bool {
	return len(c.completeVCs(v)) >= c.e.cfg.Quorum()
}

// completeVCs returns the logical (all pillar parts present and
// mutually consistent) view changes stored for view v, keyed by
// replica.
func (c *coordinator) completeVCs(v timeline.View) map[uint32][]*message.ViewChange {
	out := make(map[uint32][]*message.ViewChange)
	for r, parts := range c.vcs[v] {
		if logicalVCComplete(parts) {
			out[r] = parts
		}
	}
	return out
}

func logicalVCComplete(parts []*message.ViewChange) bool {
	if len(parts) == 0 {
		return false
	}
	first := (*message.ViewChange)(nil)
	for _, p := range parts {
		if p == nil {
			return false
		}
		if first == nil {
			first = p
		} else if p.From != first.From || p.To != first.To || p.CkptOrder != first.CkptOrder || p.CkptDigest != first.CkptDigest {
			return false
		}
	}
	return true
}

// tryAdvanceView walks the replica toward the desired view while the
// view-change-certificate rule permits: the step to curView+1 is
// always allowed; any further step to w requires a certificate for
// w−1, whose prepares are merged into the learned set first. The
// desired view itself only rises through the watchdog, the pending
// timeout, or the f+1 join rule — never here.
func (c *coordinator) tryAdvanceView() {
	for {
		var target timeline.View
		if !c.pending {
			if c.desired <= c.curView {
				return
			}
			target = c.curView + 1
		} else {
			if c.desired <= c.pendingTo {
				return
			}
			if !c.haveVCQuorum(c.pendingTo) {
				return // certificate rule: cannot leave pendingTo yet
			}
			// Leader dwell rule: with a quorum aborted into the view we
			// lead, emit its NEW-VIEW instead of stepping over it. In a
			// reduced group (N−f live) quorums only assemble after the
			// pending timeout has already raised desired, so without
			// this the whole group chases view numbers in lockstep and
			// no view ever installs.
			if c.e.cfg.LeaderOf(c.pendingTo) == c.e.id {
				c.maybeEmitNewView(c.pendingTo)
				if !c.pending {
					continue // installed; re-evaluate from the new view
				}
			}
			c.mergeLearnedFromVCs(c.pendingTo)
			target = c.pendingTo + 1
		}
		// Jump further if certificates for later views already exist,
		// but never past the view we actually have evidence for.
		for w := target; w < c.desired; w++ {
			if c.haveVCQuorum(w) {
				c.mergeLearnedFromVCs(w)
				target = w + 1
			}
		}
		if !c.startViewChange(target) {
			return
		}
	}
}

// mergeLearnedFromVCs folds every prepare disclosed by the view-change
// certificate for view v into the learned set, so this replica can
// propagate them in later VIEW-CHANGEs even though it never received
// the original messages (§5.2.3, "View-Change Certificates").
func (c *coordinator) mergeLearnedFromVCs(v timeline.View) {
	for _, parts := range c.completeVCs(v) {
		for _, part := range parts {
			c.mergeLearned(part.Prepares)
		}
	}
}

func (c *coordinator) mergeLearned(ps []*message.Prepare) {
	for _, p := range ps {
		if p.Order <= c.ck.Stable().Order {
			continue
		}
		if cur, ok := c.learned[p.Order]; !ok || p.View > cur.View {
			c.learned[p.Order] = p
		}
	}
}

// learnedForPillar filters the learned set to one pillar's class.
func (c *coordinator) learnedForPillar(u uint32) []*message.Prepare {
	var out []*message.Prepare
	pillars := uint32(len(c.e.pillars))
	for _, p := range c.learned {
		if c.e.cfg.PillarOf(p.Order)%pillars == u {
			out = append(out, p)
		}
	}
	return out
}

// startViewChange aborts the current (or pending) view and multicasts
// VIEW-CHANGE parts for view "to", one per pillar (§5.3.3, split
// external messages). Returns false if the target is not ahead.
func (c *coordinator) startViewChange(to timeline.View) bool {
	if to <= c.curView || (c.pending && to <= c.pendingTo) {
		return false
	}
	parts := make([]*message.ViewChange, len(c.e.pillars))
	stable := c.ck.Stable()
	for u, p := range c.e.pillars {
		reply := make(chan *message.ViewChange, 1)
		p.inbox.Put(evCollectVC{
			from:      c.curView,
			to:        to,
			ckptOrder: stable.Order,
			ckptDig:   stable.Digest,
			ckptProof: stable.Proof,
			learned:   c.learnedForPillar(uint32(u)),
			reply:     reply,
		})
		select {
		case part := <-reply:
			if part == nil {
				return false
			}
			parts[u] = part
		case <-c.e.stopped:
			return false
		}
	}
	c.pending = true
	c.pendingTo = to
	c.pendingSince = c.e.Now()
	c.viewChanges.Inc()
	c.e.met.Trace(telemetry.EvViewChange, uint64(to), 0, 0, "")
	c.ownVC = map[timeline.View][]*message.ViewChange{to: parts}
	c.storeVCParts(c.e.id, parts)
	for _, vc := range parts {
		transport.Multicast(c.e.ep, c.e.cfg.N, vc)
	}
	c.maybeEmitNewView(to)
	return true
}

func (c *coordinator) storeVCParts(replica uint32, parts []*message.ViewChange) {
	for _, vc := range parts {
		c.storeVCPart(replica, vc)
	}
}

func (c *coordinator) storeVCPart(replica uint32, vc *message.ViewChange) {
	byReplica, ok := c.vcs[vc.To]
	if !ok {
		byReplica = make(map[uint32][]*message.ViewChange)
		c.vcs[vc.To] = byReplica
	}
	parts := byReplica[replica]
	if parts == nil {
		parts = make([]*message.ViewChange, len(c.e.pillars))
		byReplica[replica] = parts
	}
	if parts[vc.Pillar] == nil {
		parts[vc.Pillar] = vc
	}
}

// handleViewChange ingests a peer's VIEW-CHANGE part.
func (c *coordinator) handleViewChange(from uint32, vc *message.ViewChange) {
	if vc.Replica != from {
		return
	}
	if vc.To <= c.curView {
		// The sender lags behind an already-installed view: help it
		// with the NEW-VIEW we hold.
		for _, nv := range c.lastNV {
			_ = c.e.ep.Send(from, nv)
		}
		return
	}
	if err := c.e.verifyViewChangePart(c.tx, vc); err != nil {
		return
	}
	if vc.From < c.curView {
		// The sender abandons views it never established: its From lags
		// our installed view even though its To is ahead. Until it
		// acknowledges our view, no later NEW-VIEW can satisfy the From
		// rule (§5.2.3 needs f+1 confirmations of the maximum From), so
		// a single lost NEW-VIEW or ack would wedge the view change
		// forever. Re-send the NEW-VIEW we hold; receiving it makes the
		// peer emit (or re-emit) its acknowledgment.
		for _, nv := range c.lastNV {
			_ = c.e.ep.Send(from, nv)
		}
	}
	c.storeVCPart(from, vc)

	// Join rule: f+1 distinct replicas moving to a higher view prove
	// at least one correct replica suspects the configuration; follow
	// them (the example's step 6).
	if len(c.completeVCs(vc.To)) > c.e.cfg.F() {
		c.bumpDesired(vc.To)
	}
	c.tryAdvanceView()
	if c.e.cfg.LeaderOf(vc.To) == c.e.id {
		c.maybeEmitNewView(vc.To)
	}
}

// handleNewViewAck ingests an acknowledgment part.
func (c *coordinator) handleNewViewAck(from uint32, a *message.NewViewAck) {
	if a.Replica != from || a.View < c.curView {
		// Acks for views below ours are dead evidence — any NEW-VIEW we
		// emit carries our own VC with From == curView, so the From rule
		// never needs them. Acks for curView itself stay relevant: they
		// are precisely the f+1 confirmations a future view we lead must
		// present (§5.2.3).
		return
	}
	if err := c.e.verifyNewViewAckPart(c.tx, a); err != nil {
		return
	}
	byReplica, ok := c.acks[a.View]
	if !ok {
		byReplica = make(map[uint32][]*message.NewViewAck)
		c.acks[a.View] = byReplica
	}
	parts := byReplica[from]
	if parts == nil {
		parts = make([]*message.NewViewAck, len(c.e.pillars))
		byReplica[from] = parts
	}
	if parts[a.Pillar] == nil {
		parts[a.Pillar] = a
	}
	c.mergeLearned(a.Prepares)
	if c.pending && c.e.cfg.LeaderOf(c.pendingTo) == c.e.id {
		c.maybeEmitNewView(c.pendingTo)
	}
}
