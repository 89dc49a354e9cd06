package core

import (
	"testing"
	"testing/quick"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

func prep(v timeline.View, o timeline.Order, proposer uint32, payload string) *message.Prepare {
	return &message.Prepare{
		View: v, Order: o,
		Requests: []*message.Request{{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte(payload)}},
		Cert: trinx.Certificate{
			Kind: trinx.Independent, Issuer: trinx.MakeInstanceID(proposer, 0),
			Value: uint64(timeline.Pack(v, o)),
		},
	}
}

func commitFor(p *message.Prepare, replica uint32) *message.Commit {
	return &message.Commit{
		View: p.View, Order: p.Order, Replica: replica, BatchDigest: p.BatchDigest(),
	}
}

func TestWindowBounds(t *testing.T) {
	w := newWindow(100, 2)
	if w.Low() != 0 || w.High() != 100 {
		t.Fatalf("low=%d high=%d", w.Low(), w.High())
	}
	if w.InWindow(0) {
		t.Fatal("low water mark itself is in window")
	}
	if !w.InWindow(1) || !w.InWindow(100) {
		t.Fatal("window bounds wrong")
	}
	if w.InWindow(101) {
		t.Fatal("above high water mark accepted")
	}
}

func TestCommitQuorum(t *testing.T) {
	w := newWindow(100, 2) // n=3, q=2
	p := prep(0, 1, 0, "a")
	s := w.SetPrepare(p)
	if s == nil || s.Committed {
		t.Fatalf("slot after prepare: %+v", s)
	}
	if s.Acks() != 1 || !s.acks[0] {
		t.Fatal("prepare did not count as proposer ack")
	}
	s = w.AddCommit(commitFor(p, 1))
	if s == nil || !s.Committed {
		t.Fatal("quorum of 2 (leader + 1 follower) not committed")
	}
}

func TestCommitBeforePrepare(t *testing.T) {
	w := newWindow(100, 2)
	p := prep(0, 5, 0, "a")
	// Commit arrives first (reordering across links).
	if s := w.AddCommit(commitFor(p, 1)); s == nil || s.Committed {
		t.Fatalf("early commit mishandled: %+v", s)
	}
	s := w.SetPrepare(p)
	if s == nil || !s.Committed {
		t.Fatal("prepare after commit did not complete certificate")
	}
}

func TestConflictingDigestRejected(t *testing.T) {
	w := newWindow(100, 2)
	p := prep(0, 1, 0, "a")
	w.SetPrepare(p)
	other := prep(0, 1, 0, "b")
	if s := w.AddCommit(commitFor(other, 1)); s != nil {
		t.Fatal("commit with conflicting digest accepted")
	}
	if w.Existing(1).Committed {
		t.Fatal("slot committed despite conflict")
	}
}

func TestDuplicateAcksCountOnce(t *testing.T) {
	w := newWindow(100, 3) // need 3 acks
	p := prep(0, 1, 0, "a")
	w.SetPrepare(p)
	for i := 0; i < 5; i++ {
		w.AddCommit(commitFor(p, 1))
	}
	if w.Existing(1).Committed {
		t.Fatal("duplicate commits reached quorum")
	}
	w.AddCommit(commitFor(p, 2))
	if !w.Existing(1).Committed {
		t.Fatal("3 distinct acks did not commit")
	}
}

func TestOutOfWindowRejected(t *testing.T) {
	w := newWindow(10, 2)
	if s := w.SetPrepare(prep(0, 11, 0, "a")); s != nil {
		t.Fatal("prepare above high water mark accepted")
	}
	w.Advance(10)
	if s := w.SetPrepare(prep(0, 10, 0, "a")); s != nil {
		t.Fatal("prepare at low water mark accepted")
	}
	if s := w.SetPrepare(prep(0, 11, 0, "a")); s == nil {
		t.Fatal("prepare in advanced window rejected")
	}
}

func TestAdvanceGarbageCollects(t *testing.T) {
	w := newWindow(100, 2)
	for o := timeline.Order(1); o <= 50; o++ {
		w.SetPrepare(prep(0, o, 0, "x"))
	}
	if w.Len() != 50 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.Advance(30)
	if w.Len() != 20 {
		t.Fatalf("after advance Len = %d, want 20", w.Len())
	}
	if w.Low() != 30 || w.High() != 130 {
		t.Fatalf("low=%d high=%d", w.Low(), w.High())
	}
	w.Advance(10) // backwards: no-op
	if w.Low() != 30 {
		t.Fatal("window moved backwards")
	}
}

func TestWindowMemoryBounded(t *testing.T) {
	// Property: under arbitrary prepare/advance interleavings the
	// number of live slots never exceeds the window size.
	w := newWindow(16, 2)
	err := quick.Check(func(orders []uint16, advances []uint16) bool {
		for i, oRaw := range orders {
			o := timeline.Order(oRaw % 64)
			w.SetPrepare(prep(0, o, 0, "x"))
			if i < len(advances) {
				w.Advance(timeline.Order(advances[i] % 64))
			}
			if w.Len() > 16 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestViewTransitionResetsSlot(t *testing.T) {
	w := newWindow(100, 2)
	p0 := prep(0, 1, 0, "a")
	w.SetPrepare(p0)
	w.AddCommit(commitFor(p0, 1))
	if !w.Existing(1).Committed {
		t.Fatal("setup failed")
	}

	// A re-proposal in view 1 resets the slot's per-view state.
	p1 := prep(1, 1, 1, "a")
	s := w.SetPrepare(p1)
	if s == nil || s.Committed || s.View != 1 {
		t.Fatalf("slot after view transition: %+v", s)
	}
	if s.Acks() != 1 {
		t.Fatalf("acks = %d after reset", s.Acks())
	}

	// Stale view-0 messages are now rejected.
	if got := w.AddCommit(commitFor(p0, 2)); got != nil {
		t.Fatal("stale commit accepted after view transition")
	}
}

func TestExecutedSurvivesViewChange(t *testing.T) {
	w := newWindow(100, 2)
	p0 := prep(0, 1, 0, "a")
	w.SetPrepare(p0)
	w.AddCommit(commitFor(p0, 1))
	w.Existing(1).Executed = true

	w.SetPrepare(prep(1, 1, 1, "a"))
	if !w.Existing(1).Executed {
		t.Fatal("executed flag lost across views")
	}
}

func TestPreparesOrderedDisclosure(t *testing.T) {
	w := newWindow(100, 2)
	for _, o := range []timeline.Order{5, 2, 9, 1} {
		w.SetPrepare(prep(0, o, 0, "x"))
	}
	ps := w.Prepares()
	if len(ps) != 4 {
		t.Fatalf("got %d prepares", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Order >= ps[i].Order {
			t.Fatal("prepares not in ascending order")
		}
	}
	w.Advance(2)
	if got := len(w.Prepares()); got != 2 {
		t.Fatalf("after advance: %d prepares, want 2", got)
	}
}

func TestDuplicatePrepareIgnored(t *testing.T) {
	w := newWindow(100, 2)
	p := prep(0, 1, 0, "a")
	w.SetPrepare(p)
	// A different prepare for the same slot in the same view must not
	// replace the first (the certificate layer makes this impossible
	// for valid messages; the window is defensive).
	w.SetPrepare(prep(0, 1, 0, "b"))
	if string(w.Existing(1).Prepare.Requests[0].Payload) != "a" {
		t.Fatal("duplicate prepare replaced original")
	}
}

func TestNewWindowPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { newWindow(0, 2) },
		func() { newWindow(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
