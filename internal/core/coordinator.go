package core

import (
	"time"

	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// stableCkpt is the record of the last stable checkpoint, announcement
// one replica's certified CHECKPOINT on its way to the quorum count.
type (
	stableCkpt   = engine.StableCkpt[*message.Checkpoint]
	announcement = engine.Announcement[*message.Checkpoint]
)

// coordinator runs the replica-local side of checkpointing (§5.3.2),
// the distributed view change (§5.2.3, §5.3.3), and state transfer. It
// is a single event loop; all fields below are confined to it.
type coordinator struct {
	e  *Engine
	tx Certifier

	curView      timeline.View
	pending      bool
	pendingTo    timeline.View
	pendingSince time.Time
	desired      timeline.View // highest view we have evidence for
	viewChanges  *telemetry.Counter

	// ck is the checkpoint sub-protocol and state transfer.
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
	return c.e.Cfg.ViewChangeTimeout / 8
}

func newCoordinator(e *Engine, tx Certifier) *coordinator {
	c := &coordinator{
		e:           e,
		tx:          tx,
		viewChanges: e.Met.Counter("view_changes_total", "view changes this replica initiated or joined"),
		vcs:         make(map[timeline.View]map[uint32][]*message.ViewChange),
		acks:        make(map[timeline.View]map[uint32][]*message.NewViewAck),
		ownVC:       make(map[timeline.View][]*message.ViewChange),
		nvParts:     make(map[timeline.View][]*message.NewView),
		nvEmitted:   make(map[timeline.View]bool),
		learned:     make(map[timeline.Order]*message.Prepare),
	}
	c.ck = engine.NewCheckpoints(e.Host,
		func(o timeline.Order, d crypto.Digest, proof []*message.Checkpoint) error {
			return e.verifyCheckpointProof(tx, o, d, proof)
		}, c.stableAdvanced)
	return c
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
	case *message.ViewChange:
		c.handleViewChange(from, v)
	case *message.NewView:
		c.handleNewView(from, v)
	case *message.NewViewAck:
		c.handleNewViewAck(from, v)
	case *message.StateRequest:
		c.ck.Serve(from, v)
	case *message.StateReply:
		c.ck.Install(v)
	}
}

// stableAdvanced propagates a newly recorded stable checkpoint to the
// WAL and the learned set (the pillars' windows slide on their own
// engine.Advance).
func (c *coordinator) stableAdvanced(st *stableCkpt) {
	c.e.logCheckpoint(st)
	for o := range c.learned {
		if o <= st.Order {
			delete(c.learned, o)
		}
	}
}

// --- view change ---------------------------------------------------------------

// handleTick drives the watchdog, escalation, gap filling, and
// retransmission.
func (c *coordinator) handleTick() {
	c.e.ObserveExec(c.e.LastExecuted())
	c.ck.Tick()

	if !c.pending {
		// Watchdog: outstanding work without execution progress for a
		// full timeout means the current configuration is stuck.
		if stalled := c.e.Stalled(); stalled > c.e.Cfg.ViewChangeTimeout {
			c.bumpDesired(c.curView + 1)
		} else if stalled > c.gapDelay() {
			// Gap filling: if execution waits on an order we own and
			// never proposed, close it with a no-op (§5.3.1).
			c.e.Seq.ProposeNoop(c.curView, c.e.LastExecuted()+1)
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
				transport.Multicast(c.e.Ep, c.e.Cfg.N, vc)
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
	return len(c.completeVCs(v)) >= c.e.Cfg.Quorum()
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
			if c.e.Cfg.LeaderOf(c.pendingTo) == c.e.ID() {
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
	for _, p := range c.learned {
		if c.e.Cfg.PillarOf(p.Order) == u {
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
	for u, box := range c.e.PillarBox {
		reply := make(chan *message.ViewChange, 1)
		box.Put(evCollectVC{
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
		case <-c.e.Stopped():
			return false
		}
	}
	c.pending = true
	c.pendingTo = to
	c.pendingSince = c.e.Now()
	c.viewChanges.Inc()
	c.e.Met.Trace(telemetry.EvViewChange, uint64(to), 0, 0, "")
	c.ownVC = map[timeline.View][]*message.ViewChange{to: parts}
	c.storeVCParts(c.e.ID(), parts)
	for _, vc := range parts {
		transport.Multicast(c.e.Ep, c.e.Cfg.N, vc)
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
			_ = c.e.Ep.Send(from, nv)
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
			_ = c.e.Ep.Send(from, nv)
		}
	}
	c.storeVCPart(from, vc)

	// Join rule: f+1 distinct replicas moving to a higher view prove
	// at least one correct replica suspects the configuration; follow
	// them (the example's step 6).
	if len(c.completeVCs(vc.To)) > c.e.Cfg.F() {
		c.bumpDesired(vc.To)
	}
	c.tryAdvanceView()
	if c.e.Cfg.LeaderOf(vc.To) == c.e.ID() {
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
	if c.pending && c.e.Cfg.LeaderOf(c.pendingTo) == c.e.ID() {
		c.maybeEmitNewView(c.pendingTo)
	}
}
