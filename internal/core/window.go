// The ordering window of a pillar: the log of ongoing consensus
// instances between the low and high water marks (§5.2.2, "Strict
// Ordering Window"). Each slot accumulates the PREPARE and COMMIT
// messages of one instance until a committed certificate — a quorum of
// acknowledgments including the leader's PREPARE — is complete.
// Advancing a stable checkpoint slides the window and garbage collects
// older slots, which bounds memory; Hybster adheres to this window even
// during view changes.
//
// A window is confined to a single pillar goroutine and therefore
// performs no locking.

package core

import (
	"fmt"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
)

// slot tracks one consensus instance within the window.
type slot struct {
	// Order is the instance's order number.
	Order timeline.Order
	// View is the view the slot's messages belong to. Messages from
	// older views are discarded when the slot moves to a newer view.
	View timeline.View
	// Prepare is the leader's proposal, once received (or sent).
	Prepare *message.Prepare
	// BatchDigest caches the digest of the proposed batch.
	BatchDigest crypto.Digest
	// acks records which replicas acknowledged the instance in View:
	// the proposer through its PREPARE, followers through COMMITs.
	acks map[uint32]bool
	// Committed is set once a committed certificate is complete.
	Committed bool
	// Executed is set once the execution stage delivered the batch.
	Executed bool
}

// Acks returns the number of distinct acknowledgments collected.
func (s *slot) Acks() int { return len(s.acks) }

// AddOwnAck records the local replica's acknowledgment (its COMMIT)
// directly, without a message. Callers follow up with window.Refresh.
func (s *slot) AddOwnAck(r uint32) { s.acks[r] = true }

// reset clears per-view state when the slot transitions to a new view.
func (s *slot) reset(v timeline.View) {
	s.View = v
	s.Prepare = nil
	s.BatchDigest = crypto.Digest{}
	s.acks = make(map[uint32]bool)
	s.Committed = false
	// Executed survives: execution is permanent across views.
}

// window is the sliding ordering window of one pillar.
type window struct {
	low    timeline.Order // last stable checkpoint; instances <= low are done
	size   timeline.Order // high water mark = low + size
	quorum int
	slots  map[timeline.Order]*slot
}

// newWindow creates a window of the given span and quorum size
// starting at low water mark 0.
func newWindow(size timeline.Order, quorum int) *window {
	if size == 0 || quorum < 1 {
		panic(fmt.Sprintf("core: invalid window size=%d quorum=%d", size, quorum))
	}
	return &window{size: size, quorum: quorum, slots: make(map[timeline.Order]*slot)}
}

// Low returns the low water mark (the last stable checkpoint order).
func (w *window) Low() timeline.Order { return w.low }

// High returns the high water mark; replicas do not participate in
// instances above it.
func (w *window) High() timeline.Order { return w.low + w.size }

// InWindow reports whether order o lies inside the active window
// (low, high].
func (w *window) InWindow(o timeline.Order) bool {
	return o > w.low && o <= w.High()
}

// Slot returns the slot of instance o in view v, creating it on first
// access. If the slot currently holds state of an older view, it is
// reset for v (messages of aborted views are obsolete; re-proposals in
// the new view replace them). Accessing a slot with an older view than
// recorded returns nil — the caller's message is stale.
func (w *window) Slot(o timeline.Order, v timeline.View) *slot {
	if !w.InWindow(o) {
		return nil
	}
	s, ok := w.slots[o]
	if !ok {
		s = &slot{Order: o, View: v, acks: make(map[uint32]bool)}
		w.slots[o] = s
		return s
	}
	switch {
	case v > s.View:
		s.reset(v)
	case v < s.View:
		return nil
	}
	return s
}

// Existing returns the slot of o if present, without creating or
// resetting it.
func (w *window) Existing(o timeline.Order) *slot { return w.slots[o] }

// SetPrepare records the proposal for its instance. It returns the slot
// or nil if the message is outside the window or stale. The caller has
// already verified the certificate.
func (w *window) SetPrepare(p *message.Prepare) *slot {
	s := w.Slot(p.Order, p.View)
	if s == nil || s.Prepare != nil {
		return s
	}
	s.Prepare = p
	s.BatchDigest = p.BatchDigest()
	proposer := trinxReplica(p)
	s.acks[proposer] = true
	w.refresh(s)
	return s
}

// AddCommit records a follower acknowledgment. It returns the slot or
// nil if the commit is outside the window, stale, or inconsistent with
// the prepared batch.
func (w *window) AddCommit(c *message.Commit) *slot {
	s := w.Slot(c.Order, c.View)
	if s == nil {
		return nil
	}
	if s.Prepare != nil && s.BatchDigest != c.BatchDigest {
		// Conflicting digest: with valid independent certificates this
		// cannot happen for the same (view, order); drop defensively.
		return nil
	}
	s.acks[c.Replica] = true
	w.refresh(s)
	return s
}

// Refresh recomputes the committed flag after out-of-band ack changes
// (AddOwnAck).
func (w *window) Refresh(s *slot) { w.refresh(s) }

// refresh recomputes the committed flag.
func (w *window) refresh(s *slot) {
	if !s.Committed && s.Prepare != nil && len(s.acks) >= w.quorum {
		s.Committed = true
	}
}

// Advance slides the window to a new stable checkpoint at order ckpt:
// the low water mark becomes ckpt and every slot at or below it is
// discarded (§5.2.2). Advancing backwards is a no-op.
func (w *window) Advance(ckpt timeline.Order) {
	if ckpt <= w.low {
		return
	}
	w.low = ckpt
	for o := range w.slots {
		if o <= ckpt {
			delete(w.slots, o)
		}
	}
}

// Prepares returns the PREPAREs of all instances in the window the
// replica participated in, ordered by order number — the disclosure a
// VIEW-CHANGE must carry (§5.2.3).
func (w *window) Prepares() []*message.Prepare {
	var out []*message.Prepare
	for o := w.low + 1; o <= w.High(); o++ {
		if s, ok := w.slots[o]; ok && s.Prepare != nil {
			out = append(out, s.Prepare)
		}
	}
	return out
}

// Len returns the number of live slots (diagnostics; memory-bound
// tests rely on it).
func (w *window) Len() int { return len(w.slots) }

// trinxReplica extracts the proposing replica from the prepare's
// certificate issuer.
func trinxReplica(p *message.Prepare) uint32 {
	return p.Cert.Issuer.Replica()
}
