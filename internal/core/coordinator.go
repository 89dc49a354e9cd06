package core

import (
	"time"

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

	// pendingSince is when the replica last aborted into, or escalated
	// from, its pending view (engine.Host.Pending).
	pendingSince time.Time
	desired      timeline.View // highest view we have evidence for
	viewChanges  *telemetry.Counter

	// ck is the checkpoint sub-protocol and state transfer.
	ck *engine.Checkpoints[*message.Checkpoint]

	// vcs[v][replica][pillar] collects VIEW-CHANGE parts for view v,
	// this replica's own included (they are what it retransmits); a
	// logical view change is complete when all pillar parts arrived.
	vcs map[timeline.View]map[uint32][]*message.ViewChange
	// acks[v][replica][pillar] collects NEW-VIEW-ACK parts for view v.
	acks map[timeline.View]map[uint32][]*message.NewViewAck
	// nvParts[v][pillar] collects NEW-VIEW parts for view v, from its
	// leader or, as that leader, our own. nvParts[e.View()] is the
	// installed view's NEW-VIEW, re-sent to laggards.
	nvParts map[timeline.View][]*message.NewView
	// learned maps order numbers to the highest-view prepare this
	// replica learned through view-change certificates, NEW-VIEWs, and
	// acknowledgments; propagated in future VIEW-CHANGEs (§5.2.3).
	learned map[timeline.Order]*message.Prepare
}

func newCoordinator(e *Engine, tx Certifier) *coordinator {
	c := &coordinator{
		e:           e,
		tx:          tx,
		viewChanges: e.Met.Counter("view_changes_total", "view changes this replica initiated or joined"),
		vcs:         make(map[timeline.View]map[uint32][]*message.ViewChange),
		acks:        make(map[timeline.View]map[uint32][]*message.NewViewAck),
		nvParts:     make(map[timeline.View][]*message.NewView),
		learned:     make(map[timeline.Order]*message.Prepare),
	}
	c.ck = engine.NewCheckpoints(e.Host, func(m *message.Checkpoint) (announcement, error) {
		return e.verifyCheckpoint(tx, m)
	}, c.stableAdvanced)
	return c
}

// standing fills the view-change fields of the replica's engine.Standing.
func (c *coordinator) standing(s *engine.Standing) {
	s.Desired = c.desired
	for r := range c.vcs[c.e.Pending] {
		s.VCHolders = append(s.VCHolders, r)
	}
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
		c.handleNewView(v)
	case *message.NewViewAck:
		c.handleNewViewAck(from, v)
	case *message.StateRequest:
		c.ck.Serve(from, v)
	case *message.StateReply:
		c.ck.Install(from, v)
	}
}

// stableAdvanced prunes the learned set below a newly recorded stable
// checkpoint (the host has logged it, and the pillars' windows slide on
// their own engine.Advance).
func (c *coordinator) stableAdvanced(st *stableCkpt) {
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

	if c.e.Pending == 0 {
		c.e.Watch()
	} else {
		if now := c.e.Now(); now.Sub(c.pendingSince) > c.e.Patience() {
			// The pending view did not stabilize in time; escalate with
			// exponentially growing patience.
			c.pendingSince = now
			c.e.Escalate()
			c.bumpDesired(c.e.Pending + 1)
		}
		// Retransmit our VIEW-CHANGE parts for the pending view only;
		// those for views stepped over go to whoever asks for them
		// (handleViewChange).
		for _, vc := range c.vcs[c.e.Pending][c.e.ID()] {
			transport.Multicast(c.e.Ep, c.e.Cfg.N, vc)
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
	return complete(c.vcs[v], logicalVCComplete)
}

func logicalVCComplete(parts []*message.ViewChange) bool {
	if !allParts(parts) {
		return false
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p.From != first.From || p.To != first.To || p.CkptOrder != first.CkptOrder || p.CkptDigest != first.CkptDigest {
			return false
		}
	}
	return true
}

// complete keeps the replicas whose logical message — one part per
// pillar — is whole.
func complete[M any](byReplica map[uint32][]*M, whole func([]*M) bool) map[uint32][]*M {
	out := make(map[uint32][]*M)
	for r, parts := range byReplica {
		if whole(parts) {
			out[r] = parts
		}
	}
	return out
}

// allParts reports whether every pillar's part is present.
func allParts[M any](parts []*M) bool {
	for _, p := range parts {
		if p == nil {
			return false
		}
	}
	return len(parts) > 0
}

// partsOf returns replica r's per-pillar parts for view v in table t,
// creating them empty on first use.
func partsOf[M any](t map[timeline.View]map[uint32][]*M, v timeline.View, r uint32, pillars int) []*M {
	if t[v] == nil {
		t[v] = make(map[uint32][]*M)
	}
	if t[v][r] == nil {
		t[v][r] = make([]*M, pillars)
	}
	return t[v][r]
}

// tryAdvanceView walks the replica toward the desired view while the
// view-change-certificate rule permits: the step to View()+1 is
// always allowed; any further step to w requires a certificate for
// w−1, whose prepares are merged into the learned set first. The
// desired view itself only rises through f+1 suspicions (the Host's
// abort step), the pending timeout, or the f+1 join rule — never here.
func (c *coordinator) tryAdvanceView() {
	for {
		target, pending := c.e.View()+1, c.e.Pending
		if pending == 0 {
			if c.desired < target {
				return
			}
		} else {
			if c.desired <= pending {
				return
			}
			if !c.haveVCQuorum(pending) {
				return // certificate rule: cannot leave the pending view yet
			}
			// Leader dwell rule: with a quorum aborted into the view we
			// lead, emit its NEW-VIEW instead of stepping over it. In a
			// reduced group (N−f live) quorums only assemble after the
			// pending timeout has already raised desired, so without
			// this the whole group chases view numbers in lockstep and
			// no view ever installs.
			if c.e.Cfg.LeaderOf(pending) == c.e.ID() {
				c.maybeEmitNewView(pending)
				if c.e.Pending == 0 {
					continue // installed; re-evaluate from the new view
				}
			}
			c.mergeLearnedFromVCs(pending)
			target = pending + 1
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
	keepHighest(c.learned, ps, c.ck.Stable().Order)
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
	if to <= max(c.e.View(), c.e.Pending) {
		return false
	}
	parts := make([]*message.ViewChange, len(c.e.pillars))
	stable := c.ck.Stable()
	for u, box := range c.e.PillarBox {
		reply := make(chan *message.ViewChange, 1)
		box.Put(evCollectVC{
			from:      c.e.View(),
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
	c.e.Pending = to
	c.pendingSince = c.e.Now()
	c.viewChanges.Inc()
	c.e.Met.Trace(telemetry.EvViewChange, uint64(to), 0, 0, "")
	copy(partsOf(c.vcs, to, c.e.ID(), len(parts)), parts)
	for _, vc := range parts {
		transport.Multicast(c.e.Ep, c.e.Cfg.N, vc)
	}
	c.maybeEmitNewView(to)
	return true
}

// relayNewView sends the installed view's NEW-VIEW to a peer whose
// VIEW-CHANGE or SUSPECT for a view below it says it missed it.
func (c *coordinator) relayNewView(to uint32) {
	for _, nv := range c.nvParts[c.e.View()] {
		_ = c.e.Ep.Send(to, nv)
	}
}

// handleViewChange ingests a peer's VIEW-CHANGE part.
func (c *coordinator) handleViewChange(from uint32, vc *message.ViewChange) {
	if vc.Replica != from {
		return
	}
	if vc.To <= c.e.View() {
		c.relayNewView(from)
		return
	}
	if err := c.e.verifyViewChangePart(c.tx, vc); err != nil {
		return
	}
	if vc.From < c.e.View() {
		// The sender abandons views it never established: its From lags
		// our installed view even though its To is ahead. Until it
		// acknowledges our view, no later NEW-VIEW can satisfy the From
		// rule (§5.2.3 needs f+1 confirmations of the maximum From), so
		// a single lost NEW-VIEW or ack would wedge the view change
		// forever. Re-send the NEW-VIEW we hold; receiving it makes the
		// peer emit (or re-emit) its acknowledgment.
		c.relayNewView(from)
	}
	if parts := partsOf(c.vcs, vc.To, from, len(c.e.pillars)); parts[vc.Pillar] == nil {
		parts[vc.Pillar] = vc
	}
	if own := c.vcs[vc.To][c.e.ID()]; vc.To < c.e.Pending && own != nil {
		// The sender is pending at a view this replica stepped over on
		// that view's certificate (§5.2.3), which our own parts may
		// complete for it; the tick retransmits only the pending view's,
		// so answer part for part.
		_ = c.e.Ep.Send(from, own[vc.Pillar])
	}

	// Join rule: f+1 distinct replicas moving to a higher view prove
	// at least one correct replica suspects the configuration; follow
	// them (the example's step 6).
	if len(c.completeVCs(vc.To)) > c.e.Cfg.F() {
		c.bumpDesired(vc.To)
	}
	c.tryAdvanceView()
	c.maybeEmitNewView(vc.To)
}

// handleNewViewAck ingests an acknowledgment part.
func (c *coordinator) handleNewViewAck(from uint32, a *message.NewViewAck) {
	if a.Replica != from || a.View < c.e.View() {
		// Acks for views below ours are dead evidence — any NEW-VIEW we
		// emit carries our own VC with From == View(), so the From rule
		// never needs them. Acks for View() itself stay relevant: they
		// are precisely the f+1 confirmations a future view we lead must
		// present (§5.2.3).
		return
	}
	if err := c.e.verifyNewViewAckPart(c.tx, a); err != nil {
		return
	}
	if parts := partsOf(c.acks, a.View, from, len(c.e.pillars)); parts[a.Pillar] == nil {
		parts[a.Pillar] = a
	}
	c.mergeLearned(a.Prepares)
	c.maybeEmitNewView(c.e.Pending)
}
