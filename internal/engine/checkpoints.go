package engine

import (
	"fmt"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/wal"
)

// StableCkpt is a replica's record of the last stable checkpoint;
// Snapshot/RV are nil when local execution never reached it (state
// must then be fetched before serving transfers). Proof is the quorum
// certificate K in the protocol's checkpoint message type M: one
// announcement per replica.
type StableCkpt[M any] struct {
	Order    timeline.Order
	Digest   crypto.Digest
	Proof    []M
	Snapshot []byte
	RV       []byte
}

// Announcement is one replica's certified checkpoint message, reduced
// to the fields the quorum count needs; Msg retains the original for
// proofs and retransmission. It is also the coordinator-mailbox event
// a pillar hands a verified announcement on with.
type Announcement[M any] struct {
	Replica uint32
	Order   timeline.Order
	Digest  crypto.Digest
	Msg     M
}

// Events of the checkpoint sub-protocol delivered to pillar mailboxes.
type (
	// CkptDue tells the owning pillar to run the checkpoint protocol
	// instance for Digest (the execution stage reached the interval
	// boundary): certify the announcement and pass it to Announce.
	CkptDue struct {
		Order  timeline.Order
		Digest crypto.Digest
	}
	// Advance announces a stable checkpoint: slide the window.
	Advance struct{ Order timeline.Order }
)

// candidate is the materialized form of one own checkpoint boundary:
// the digest announced plus the state needed to serve transfers once
// the checkpoint stabilizes.
type candidate struct {
	digest   crypto.Digest
	snapshot []byte
	rv       []byte
}

// Checkpoints is the checkpoint sub-protocol (§5.2.2, §5.3.2) and
// state transfer: replicas announce state digests per checkpoint
// order; once a quorum of matching announcements exists the checkpoint
// is stable, its message set forms the quorum certificate used for
// garbage collection, view changes and state transfer, and every
// window slides. What stays with the protocol is certification: the
// round-robin owner pillar certifies the own announcement and verifies
// the peers' with its trusted subsystem instance, then hands both on.
//
// Checkpoints is confined to the loop that drains the coordinator
// mailbox; only Announce may be called from elsewhere.
type Checkpoints[M message.Message] struct {
	h *Host
	// check verifies one certified announcement and reduces it to the
	// fields the quorum count reads: what the protocol's trusted
	// subsystem signs. Certified builds the quorum rule on it.
	check func(M) (Announcement[M], error)
	// advanced, when non-nil, learns every newly recorded stable
	// checkpoint after the pillar windows were told to slide.
	advanced func(*StableCkpt[M])

	stable     StableCkpt[M]
	candidates map[timeline.Order]candidate
	// pending[o][r] is replica r's announcement for checkpoint o above
	// the stable one. Conflicting digests from different replicas
	// coexist until one reaches a quorum (a faulty replica may announce
	// garbage; it can never prevent a correct quorum).
	pending map[timeline.Order]map[uint32]Announcement[M]
	// own retains this replica's unstable announcements for
	// retransmission.
	own map[timeline.Order]M

	lastStateReq time.Time
	// behind is LastExecuted()+1 at the last Behind, 0 once execution
	// reached it: the evidence CatchUp asks for state on.
	behind timeline.Order
	// execSeen is the executed order CatchUp last saw and execSeenAt
	// when it first saw it (zero: since boot): how long execution has
	// stood still.
	execSeen   timeline.Order
	execSeenAt time.Time
}

// NewCheckpoints builds the sub-protocol instance of h's replica,
// adopting the stable checkpoint its log held at boot.
func NewCheckpoints[M message.Message](h *Host, check func(M) (Announcement[M], error),
	advanced func(*StableCkpt[M])) *Checkpoints[M] {

	c := &Checkpoints[M]{
		h: h, check: check, advanced: advanced,
		candidates: make(map[timeline.Order]candidate),
		pending:    make(map[timeline.Order]map[uint32]Announcement[M]),
		own:        make(map[timeline.Order]M),
		execSeen:   h.Exec.LastExecuted(),
	}
	h.ck = c
	if ck := h.recovered; ck != nil {
		h.recovered = nil // the adopted copy is the one that stays
		c.restore(ck)
	}
	return c
}

// restore adopts a stable checkpoint recovered from the log, its proof
// decoded to M (another protocol's proof is ignored), and queues the
// Advance that slides every pillar window to it before Start.
func (c *Checkpoints[M]) restore(ck *wal.CheckpointRec) {
	proof, ok := recast[M](ck.Proof)
	if !ok {
		return
	}
	c.adopt(StableCkpt[M]{Order: ck.Order, Digest: ck.Digest, Proof: proof, Snapshot: ck.Snapshot, RV: ck.ReplyVector})
	for _, box := range c.h.PillarBox {
		box.Put(Advance{Order: ck.Order})
	}
}

// fillStanding sets the checkpoint fields of the replica's Standing.
func (c *Checkpoints[M]) fillStanding(s *Standing) {
	s.Stable, s.StateRequested = c.stable.Order, c.lastStateReq
}

// recast converts a proof between the protocol's announcement type and
// the message list the log record and STATE-REPLY carry; ok is false
// if an element is not a To.
func recast[To, From any](proof []From) (_ []To, ok bool) {
	out := make([]To, len(proof))
	for i, m := range proof {
		if out[i], ok = any(m).(To); !ok {
			return nil, false
		}
	}
	return out, true
}

// Stable returns the last stable checkpoint (order 0 = genesis).
func (c *Checkpoints[M]) Stable() *StableCkpt[M] { return &c.stable }

// Certified checks a stable-checkpoint certificate, the one rule for
// STATE-REPLY and VIEW-CHANGE proofs alike: order 0 (genesis) needs
// none; otherwise proof holds a quorum of announcements from distinct
// replicas, each for order o and digest d and each accepted by the
// protocol's check.
func (c *Checkpoints[M]) Certified(o timeline.Order, d crypto.Digest, proof []M) error {
	if o == 0 {
		return nil
	}
	seen := make(map[uint32]bool, len(proof))
	for _, m := range proof {
		a, err := c.check(m)
		if err != nil {
			return err
		}
		if a.Order != o || a.Digest != d || seen[a.Replica] {
			return fmt.Errorf("%s: malformed checkpoint certificate for order %d", c.h.name, o)
		}
		seen[a.Replica] = true
	}
	if len(seen) < c.h.Cfg.Quorum() {
		return fmt.Errorf("%s: checkpoint certificate has %d of %d announcements", c.h.name, len(seen), c.h.Cfg.Quorum())
	}
	return nil
}

// EnterView is every protocol's install step for a validated NEW-VIEW
// of view w: install w, clear the pending view and every recorded
// suspicion, and adopt its claim —
// the newest stable checkpoint its VIEW-CHANGE set proves — if above
// the stable one, as a record without state or log record, which
// CatchUp then fetches. It reports whether the claim was adopted.
func (c *Checkpoints[M]) EnterView(w timeline.View, claim StableCkpt[M]) bool {
	c.h.curView.Store(uint64(w))
	c.h.Pending = 0
	clear(c.h.suspects) // a replica that still suspects says so again
	c.h.Met.Trace(telemetry.EvNewView, uint64(w), uint64(claim.Order), 0, "")
	adopted := c.adopt(claim)
	if adopted {
		c.CatchUp()
	}
	c.h.NoteProgress(false)
	return adopted
}

// Handle processes the sub-protocol's coordinator-mailbox events: a
// checkpoint boundary from the execution stage, a certified
// announcement handed on by its owner pillar, a Behind (recorded as
// evidence for CatchUp).
func (c *Checkpoints[M]) Handle(ev any) {
	switch v := ev.(type) {
	case *statemachine.CheckpointView:
		// Dispatch the checkpoint protocol instance to its round-robin
		// owner pillar (§5.3.2).
		if digest, ahead := c.Candidate(v); ahead {
			c.h.ckptBox(v.Order).Put(CkptDue{Order: v.Order, Digest: digest})
		}
	case Announcement[M]:
		c.vote(v)
	case Behind:
		c.behind = c.h.Exec.LastExecuted() + 1
		c.CatchUp()
	}
}

// Candidate materializes a checkpoint boundary posted by the execution
// stage: the application snapshot is encoded and hashed here, off the
// delivery path. It returns the digest to announce and whether the
// boundary is still ahead of the stable checkpoint. Boundaries below
// the stable checkpoint are dropped before paying for the encode; one
// that equals it (executed late) completes the stable record so this
// replica can serve transfers for it.
func (c *Checkpoints[M]) Candidate(v *statemachine.CheckpointView) (digest crypto.Digest, ahead bool) {
	if v.Order < c.stable.Order {
		return digest, false
	}
	digest = v.StateDigest()
	if v.Order == c.stable.Order {
		if c.stable.Snapshot == nil && digest == c.stable.Digest {
			c.stable.Snapshot, c.stable.RV = v.Snapshot(), v.ReplyVector()
		}
		return digest, false
	}
	c.candidates[v.Order] = candidate{digest: digest, snapshot: v.Snapshot(), rv: v.ReplyVector()}
	// A candidate may stabilize late and must then be servable: adopt
	// prunes those the stable checkpoint covers. Execution stays within
	// a window of it, so vote's bound caps the set (the lowest goes).
	if len(c.candidates) > int(c.h.Cfg.WindowSize/c.h.Cfg.CheckpointInterval)+1 {
		lowest := v.Order
		for o := range c.candidates {
			lowest = min(lowest, o)
		}
		delete(c.candidates, lowest)
	}
	return digest, true
}

// Announce publishes this replica's certified announcement: multicast
// to the group, then handed to the coordinator mailbox like a peer's.
// The owner pillar calls it from its own goroutine; view and pillar
// label the trace event.
func (c *Checkpoints[M]) Announce(pillar uint32, view timeline.View, a Announcement[M]) {
	c.h.Met.CkptsOwn.Inc()
	c.h.Met.TraceD(telemetry.EvCheckpoint, uint64(view), uint64(a.Order), pillar, a.Digest[:], "")
	transport.Multicast(c.h.Ep, c.h.Cfg.N, a.Msg)
	c.h.CoordBox.Put(a)
}

// vote records one verified announcement. Order a.Order becomes stable
// exactly when a quorum of replicas announced the same digest.
func (c *Checkpoints[M]) vote(a Announcement[M]) {
	if a.Order <= c.stable.Order {
		return // obsolete
	}
	votes := c.pending[a.Order]
	if votes == nil {
		votes = make(map[uint32]Announcement[M])
		c.pending[a.Order] = votes
	}
	if _, dup := votes[a.Replica]; dup {
		return // first announcement per replica wins
	}
	votes[a.Replica] = a
	if a.Replica == c.h.id {
		c.own[a.Order] = a.Msg
	}
	// Bound what one announcing replica can make this one store: a
	// correct replica announces ascending boundaries and cannot run
	// more than a window ahead of the stable checkpoint, so beyond
	// that many outstanding announcements its lowest order goes. A
	// lagging replica still learns the group's frontier from the
	// newest ones and from Behind.
	held, lowest := 0, a.Order
	for o, vs := range c.pending {
		if _, ok := vs[a.Replica]; ok {
			held++
			lowest = min(lowest, o)
		}
	}
	if held > int(c.h.Cfg.WindowSize/c.h.Cfg.CheckpointInterval)+1 {
		delete(c.pending[lowest], a.Replica)
		if len(c.pending[lowest]) == 0 {
			delete(c.pending, lowest)
		}
		if lowest == a.Order {
			return
		}
	}
	var proof []M
	for _, other := range votes {
		if other.Digest == a.Digest {
			proof = append(proof, other.Msg)
		}
	}
	if len(proof) < c.h.Cfg.Quorum() || !c.adopt(StableCkpt[M]{Order: a.Order, Digest: a.Digest, Proof: proof}) {
		return
	}
	c.h.Met.CkptsStable.Inc()
	c.h.Met.TraceD(telemetry.EvCkptStable, uint64(c.h.View()), uint64(a.Order), 0, a.Digest[:], "")
	c.slide()
	// The instances this stable checkpoint covers are pruned from every
	// window, so any delivery hole below it just became permanent —
	// execution can only resume from transferred state.
	c.CatchUp()
}

// slide propagates a newly recorded stable checkpoint to every
// pillar's window, to the log and to the protocol.
func (c *Checkpoints[M]) slide() {
	for _, box := range c.h.PillarBox {
		box.Put(Advance{Order: c.stable.Order})
	}
	if c.h.log != nil {
		proof, _ := recast[message.Message](c.stable.Proof)
		// Synced at once; an append error is not fatal (Host.Decide).
		_ = c.h.log.AppendCheckpoint(&wal.CheckpointRec{Order: c.stable.Order, Digest: c.stable.Digest,
			Snapshot: c.stable.Snapshot, ReplyVector: c.stable.RV, Proof: proof})
	}
	if c.advanced != nil {
		c.advanced(&c.stable)
	}
}

// adopt records st as the stable checkpoint if it is newer than the
// current one and reports whether it was; announcements and candidates
// it covers are garbage collected. A record without state takes it
// from the matching own candidate. The caller slides the windows
// (view-change installation does so with the new view).
func (c *Checkpoints[M]) adopt(st StableCkpt[M]) bool {
	if st.Order <= c.stable.Order {
		return false
	}
	if cand, ok := c.candidates[st.Order]; ok && st.Snapshot == nil && cand.digest == st.Digest {
		st.Snapshot, st.RV = cand.snapshot, cand.rv
	}
	c.stable = st
	for o := range c.candidates {
		if o <= st.Order {
			delete(c.candidates, o)
		}
	}
	for o := range c.pending {
		if o <= st.Order {
			delete(c.pending, o)
		}
	}
	for o := range c.own {
		if o <= st.Order {
			delete(c.own, o)
		}
	}
	return true
}

// Tick drives the sub-protocol's retries: state transfer while
// CatchUp's rule holds, and re-multicast of the
// oldest own announcement that is not yet stable (its first copy, or
// the peers', may have been lost).
func (c *Checkpoints[M]) Tick() {
	c.CatchUp()
	var oldest timeline.Order
	for o := range c.own {
		if oldest == 0 || o < oldest {
			oldest = o
		}
	}
	if oldest != 0 {
		transport.Multicast(c.h.Ep, c.h.Cfg.N, c.own[oldest])
	}
}

// CatchUp is the one catch-up rule: ask the group for the newest
// stable state, at most once a second, while
//   - the stable checkpoint lies more than a checkpoint interval beyond
//     what this replica committed (it missed a whole interval, and the
//     decisions below the checkpoint are gone from the group's logs),
//   - it lies beyond what execution reached and execution has stood
//     still for a tick (a hole that ordering will not fill), or
//   - execution has not moved since the last Behind.
//
// A stable checkpoint that execution is still moving towards is
// otherwise only a queue: in a fault-free group the peers that announce
// a boundary first run ahead, often before this replica has committed
// the boundary instance itself. Call CatchUp when a checkpoint is
// adopted and on every tick: a one-shot request can be lost or go
// unanswered, and if the laggards hold the quorum margin the whole
// cluster stops committing.
func (c *Checkpoints[M]) CatchUp() {
	exec, now := c.h.Exec.LastExecuted(), c.h.Now()
	if c.behind != 0 && exec >= c.behind {
		c.behind = 0
	}
	if exec != c.execSeen {
		c.execSeen, c.execSeenAt = exec, now
	}
	missed := c.stable.Order > timeline.Order(c.h.committed.Load())+c.h.Cfg.CheckpointInterval
	stalled := c.stable.Order > exec && now.Sub(c.execSeenAt) >= c.h.timeout/4
	if (!missed && !stalled && c.behind == 0) || now.Sub(c.lastStateReq) < time.Second {
		return
	}
	c.lastStateReq = now
	transport.Multicast(c.h.Ep, c.h.Cfg.N, &message.StateRequest{Replica: c.h.id, From: exec + 1})
}

// Serve answers from's STATE-REQUEST with the stable checkpoint and its
// certificate if this replica holds its state and it covers the
// requested frontier.
func (c *Checkpoints[M]) Serve(from uint32, req *message.StateRequest) {
	if req.Replica != from || c.stable.Snapshot == nil || c.stable.Order < req.From {
		return
	}
	proof, _ := recast[message.Message](c.stable.Proof)
	_ = c.h.Ep.Send(from, &message.StateReply{
		Replica:     c.h.id,
		CkptOrder:   c.stable.Order,
		Snapshot:    c.stable.Snapshot,
		ReplyVector: c.stable.RV,
		Proof:       proof,
	})
}

// Install verifies from's STATE-REPLY against its certificate
// (Certified), hands its snapshot to the execution stage and counts
// every order up to it as committed (the certificate says the group
// committed them); a transferred checkpoint newer than the recorded
// one becomes the stable checkpoint and slides the windows. A
// checkpoint execution has reached by then, here or on the execution
// stage, is neither installed nor counted.
func (c *Checkpoints[M]) Install(from uint32, rep *message.StateReply) {
	if rep.Replica != from || rep.CkptOrder <= c.h.Exec.LastExecuted() {
		return
	}
	digest := crypto.Combine(crypto.Hash(rep.Snapshot), crypto.Hash(rep.ReplyVector))
	proof, ok := recast[M](rep.Proof)
	if !ok || c.Certified(rep.CkptOrder, digest, proof) != nil {
		return
	}
	if c.h.Exec.install(rep.CkptOrder, rep.Snapshot, rep.ReplyVector, c.h.stopped) != nil {
		return
	}
	c.h.raiseCommitted(rep.CkptOrder)
	adopted := c.adopt(StableCkpt[M]{
		Order: rep.CkptOrder, Digest: digest, Proof: proof,
		Snapshot: rep.Snapshot, RV: rep.ReplyVector,
	})
	if !adopted && rep.CkptOrder == c.stable.Order && c.stable.Snapshot == nil && digest == c.stable.Digest {
		c.stable.Snapshot, c.stable.RV = rep.Snapshot, rep.ReplyVector
	}
	c.h.Met.StateXfers.Inc()
	c.h.Met.Trace(telemetry.EvStateXfer, uint64(c.h.View()), uint64(rep.CkptOrder), 0, "")
	c.h.NoteProgress(false)
	if adopted {
		c.slide()
	}
}
