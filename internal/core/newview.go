package core

import (
	"fmt"

	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
)

// computeTransfer derives the state transferred into a new view from a
// set of logical VIEW-CHANGEs (and acknowledgments): the starting
// checkpoint (the newest among the quorum, with the proof its
// VIEW-CHANGE carries) and, for every order number from there to the
// highest disclosed prepare, the batch to re-propose — the highest-view
// prepare wins, gaps become no-ops (§5.2.3, §5.3.3).
func computeTransfer(vcSet map[uint32][]*message.ViewChange, ackSet map[uint32][]*message.NewViewAck) (start stableCkpt, props []reProposal) {
	best := make(map[timeline.Order]*message.Prepare)
	for _, parts := range vcSet {
		for _, part := range parts {
			if part.CkptOrder > start.Order {
				start = stableCkpt{Order: part.CkptOrder, Digest: part.CkptDigest, Proof: part.CkptProof}
			}
			keepHighest(best, part.Prepares, 0)
		}
	}
	for _, parts := range ackSet {
		for _, a := range parts {
			if a != nil {
				keepHighest(best, a.Prepares, 0)
			}
		}
	}
	var maxO timeline.Order
	for o := range best {
		if o > maxO {
			maxO = o
		}
	}
	for o := start.Order + 1; o <= maxO; o++ {
		var batch []*message.Request
		if p, ok := best[o]; ok {
			batch = p.Requests
		}
		props = append(props, reProposal{order: o, batch: batch})
	}
	return start, props
}

// keepHighest files every prepare of ps above order floor in best
// unless best holds one of at least its view for that order: the
// highest-view prepare per order, the one rule by which view-change
// evidence is merged (§5.2.3).
func keepHighest(best map[timeline.Order]*message.Prepare, ps []*message.Prepare, floor timeline.Order) {
	for _, p := range ps {
		if cur, ok := best[p.Order]; p.Order > floor && (!ok || p.View > cur.View) {
			best[p.Order] = p
		}
	}
}

// completeAcks returns the logical (all pillar parts present)
// acknowledgments for view v, keyed by replica.
func (c *coordinator) completeAcks(v timeline.View) map[uint32][]*message.NewViewAck {
	return complete(c.acks[v], allParts[message.NewViewAck])
}

// checkFromRule verifies the new-view-acknowledgment condition of
// §5.2.3: the highest v_from among the quorum's VIEW-CHANGEs must be
// confirmed as properly established by at least f+1 replicas — either
// through VCs with that v_from or through the NEW-VIEW-ACKs for it that
// acksFor supplies.
func (c *coordinator) checkFromRule(vcSet map[uint32][]*message.ViewChange, acksFor func(timeline.View) map[uint32][]*message.NewViewAck) (timeline.View, bool) {
	var vmax timeline.View
	for _, parts := range vcSet {
		if parts[0].From > vmax {
			vmax = parts[0].From
		}
	}
	if vmax == 0 {
		return 0, true // the initial view is established by definition
	}
	confirm := make(map[uint32]bool)
	for r, parts := range vcSet {
		if parts[0].From == vmax {
			confirm[r] = true
		}
	}
	for r, parts := range acksFor(vmax) {
		if parts[0].View == vmax {
			confirm[r] = true
		}
	}
	return vmax, len(confirm) >= c.e.Cfg.F()+1
}

// maybeEmitNewView attempts to produce the NEW-VIEW for view w; the
// replica must be w's designated leader and must itself have aborted
// into w.
func (c *coordinator) maybeEmitNewView(w timeline.View) {
	if c.e.Cfg.LeaderOf(w) != c.e.ID() || c.e.Pending != w || w == 0 {
		return
	}
	vcSet := c.completeVCs(w)
	if len(vcSet) < c.e.Cfg.Quorum() {
		return
	}
	vmax, ok := c.checkFromRule(vcSet, c.completeAcks)
	if !ok {
		return
	}
	ackSet := c.completeAcks(vmax)
	start, props := computeTransfer(vcSet, ackSet)
	if start.Order > c.ck.Stable().Order {
		// The quorum is ahead of our state, which is evidence for the
		// catch-up rule; retry when the transfer completes.
		c.ck.Handle(engine.Behind{})
		return
	}

	// Certify the re-proposals on their responsible pillars.
	pillars := len(c.e.pillars)
	byPillar := make([][]reProposal, pillars)
	for _, rp := range props {
		u := c.e.Cfg.PillarOf(rp.order)
		byPillar[u] = append(byPillar[u], rp)
	}
	newPreps := make([][]*message.Prepare, pillars)
	for u := 0; u < pillars; u++ {
		reply := make(chan []*message.Prepare, 1)
		c.e.PillarBox[u].Put(evRepropose{view: w, props: byPillar[u], reply: reply})
		var ps []*message.Prepare
		select {
		case ps = <-reply:
		case <-c.e.Stopped():
			return
		}
		if ps == nil && len(byPillar[u]) > 0 {
			return // counter refused; stale attempt
		}
		newPreps[u] = ps
	}

	// Assemble and send the per-pillar NEW-VIEW parts.
	parts := make([]*message.NewView, pillars)
	for u := 0; u < pillars; u++ {
		nv := &message.NewView{View: w, Pillar: uint32(u)}
		for _, vcParts := range vcSet {
			nv.VCs = append(nv.VCs, vcParts[u])
		}
		for _, ackParts := range ackSet {
			nv.Acks = append(nv.Acks, ackParts[u])
		}
		nv.Prepares = newPreps[u]
		cert, err := c.tx.CreateTrustedMAC(counterM, nv.Digest())
		if err != nil {
			return
		}
		nv.Cert = cert
		parts[u] = nv
	}
	for _, nv := range parts {
		transport.Multicast(c.e.Ep, c.e.Cfg.N, nv)
	}
	c.nvParts[w] = parts
	c.installNewView(w, start, newPreps, true)
}

// handleNewView ingests one NEW-VIEW part of its view's leader. It is
// accepted on its certificate, whoever relays it: a replica that
// installed the view hands the NEW-VIEW it holds to a lagging peer
// (handleViewChange). The leader itself installs its view as it emits
// the NEW-VIEW; its own part relayed back reaches only an incarnation
// that restarted without knowing what it proposed in that view, and
// must not lead it again.
func (c *coordinator) handleNewView(nv *message.NewView) {
	w, leader := nv.View, c.e.Cfg.LeaderOf(nv.View)
	if w <= c.e.View() || leader == c.e.ID() {
		return
	}
	if int(nv.Pillar) >= len(c.e.pillars) {
		return
	}
	if nv.Cert.Kind != trinx.Continuing || nv.Cert.Value != nv.Cert.Prev ||
		nv.Cert.Issuer.Replica() != leader {
		return
	}
	if err := c.tx.Verify(nv.Cert, nv.Digest()); err != nil {
		return
	}
	parts := c.nvParts[w]
	if parts == nil {
		parts = make([]*message.NewView, len(c.e.pillars))
		c.nvParts[w] = parts
	}
	if parts[nv.Pillar] == nil {
		parts[nv.Pillar] = nv
	}
	for _, p := range parts {
		if p == nil {
			return // incomplete; wait for the remaining parts
		}
	}
	c.processNewView(w, parts)
}

// processNewView validates a complete NEW-VIEW exactly as the leader
// must have computed it, then either installs the view or — if this
// replica already aborted it — acknowledges it (§5.2.3).
func (c *coordinator) processNewView(w timeline.View, parts []*message.NewView) {
	vcSet, ackSet, err := c.reassemble(w, parts)
	if err != nil {
		delete(c.nvParts, w)
		return
	}
	if len(vcSet) < c.e.Cfg.Quorum() {
		return
	}
	if _, ok := c.checkFromRule(vcSet, func(timeline.View) map[uint32][]*message.NewViewAck { return ackSet }); !ok {
		return
	}
	start, props := computeTransfer(vcSet, ackSet)

	// Validate the leader's re-proposals against our own computation.
	leader := c.e.Cfg.LeaderOf(w)
	pillars := len(c.e.pillars)
	newPreps := make([][]*message.Prepare, pillars)
	total := 0
	expected := make(map[timeline.Order][]*message.Request, len(props))
	for _, rp := range props {
		expected[rp.order] = rp.batch
	}
	for u, nv := range parts {
		for _, p := range nv.Prepares {
			if p.View != w || p.Order <= start.Order {
				return
			}
			if c.e.Cfg.PillarOf(p.Order) != uint32(u) {
				return
			}
			if p.Cert.Issuer != trinx.MakeInstanceID(leader, uint32(u)) ||
				p.Cert.Kind != trinx.Independent ||
				p.Cert.Value != uint64(timeline.Pack(w, p.Order)) {
				return
			}
			if err := c.tx.Verify(p.Cert, p.Digest()); err != nil {
				return
			}
			want, ok := expected[p.Order]
			if !ok || message.BatchDigest(want) != p.BatchDigest() {
				return
			}
			delete(expected, p.Order)
			newPreps[u] = append(newPreps[u], p)
			total++
		}
		sortPrepares(newPreps[u])
	}
	if total != len(props) || len(expected) != 0 {
		return // leader omitted or invented instances
	}

	for _, ps := range newPreps {
		c.mergeLearned(ps)
	}

	if c.e.Pending > w {
		// Already aborted this view: acknowledge instead of installing
		// so a future leader can count view w as properly established.
		c.sendAcks(w, newPreps)
		return
	}
	c.installNewView(w, start, newPreps, false)
}

// reassemble reconstructs logical VIEW-CHANGEs and acknowledgments
// from the per-pillar NEW-VIEW parts, verifying every piece.
func (c *coordinator) reassemble(w timeline.View, parts []*message.NewView) (map[uint32][]*message.ViewChange, map[uint32][]*message.NewViewAck, error) {
	pillars := len(c.e.pillars)
	vcSet := make(map[uint32][]*message.ViewChange)
	ackSet := make(map[uint32][]*message.NewViewAck)
	for u, nv := range parts {
		for _, vc := range nv.VCs {
			if vc.To != w || int(vc.Pillar) != u {
				return nil, nil, fmt.Errorf("core: misplaced VC part")
			}
			if err := c.e.verifyViewChangePart(c.tx, vc); err != nil {
				return nil, nil, err
			}
			ps := vcSet[vc.Replica]
			if ps == nil {
				ps = make([]*message.ViewChange, pillars)
				vcSet[vc.Replica] = ps
			}
			ps[u] = vc
		}
		for _, a := range nv.Acks {
			if int(a.Pillar) != u {
				return nil, nil, fmt.Errorf("core: misplaced ack part")
			}
			if err := c.e.verifyNewViewAckPart(c.tx, a); err != nil {
				return nil, nil, err
			}
			ps := ackSet[a.Replica]
			if ps == nil {
				ps = make([]*message.NewViewAck, pillars)
				ackSet[a.Replica] = ps
			}
			ps[u] = a
		}
	}
	return complete(vcSet, logicalVCComplete), complete(ackSet, allParts[message.NewViewAck]), nil
}

// sendAcks multicasts per-pillar NEW-VIEW-ACKs for view w carrying the
// prepares learned from its NEW-VIEW, and retains them locally:
// Multicast skips self, but our own acknowledgment is From-rule
// evidence we may need when we later lead a view ourselves.
func (c *coordinator) sendAcks(w timeline.View, newPreps [][]*message.Prepare) {
	own := make([]*message.NewViewAck, len(c.e.pillars))
	for u := range c.e.pillars {
		ack := &message.NewViewAck{Replica: c.e.ID(), Pillar: uint32(u), View: w, Prepares: newPreps[u]}
		cert, err := c.tx.CreateTrustedMAC(counterM, ack.Digest())
		if err != nil {
			return
		}
		ack.Cert = cert
		own[u] = ack
		transport.Multicast(c.e.Ep, c.e.Cfg.N, ack)
	}
	copy(partsOf(c.acks, w, c.e.ID(), len(own)), own)
}

// installNewView makes view w stable: the engine's install step (view,
// checkpoint claim), then the coordinator's stores, each pillar's
// re-proposals, and the sequencer realigned past the transferred range.
func (c *coordinator) installNewView(w timeline.View, start stableCkpt, newPreps [][]*message.Prepare, leader bool) {
	c.ck.EnterView(w, start)
	// Reset suspicion to the installed view: any desire for a higher
	// view was evidence of pre-w stuckness, now obsolete. If w is stuck
	// too, the watchdog and the join rule re-raise it. Without the
	// clamp a replica that installs w while desired is already w+1
	// abandons the fresh view before it can order anything.
	c.desired = w

	maxOrder := start.Order
	for u, ps := range newPreps {
		c.e.PillarBox[u].Put(evInstallView{
			view: w, startCkpt: start.Order, prepares: ps, leader: leader,
		})
		for _, p := range ps {
			if p.Order > maxOrder {
				maxOrder = p.Order
			}
		}
	}

	// Prune stores for superseded views; nvParts[w] stays, it is the
	// NEW-VIEW a laggard is sent.
	for v := range c.vcs {
		if v <= w {
			delete(c.vcs, v)
		}
	}
	for v := range c.acks {
		// Keep acks for w itself: they confirm the view we just
		// installed as properly established, which the From rule of the
		// next view we lead will demand.
		if v < w {
			delete(c.acks, v)
		}
	}
	for v := range c.nvParts {
		if v < w {
			delete(c.nvParts, v)
		}
	}

	c.e.Seq.ResetForView(w, maxOrder)
}
