package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
)

// ckptHarness is the checkpoint sub-protocol of replica 0, its
// announcements of type M, on an unstarted Host with a recording
// endpoint and a clock the test sets — no engine. The test goroutine
// plays the coordinator loop.
type ckptHarness[M message.Message] struct {
	*Checkpoints[M]
	h        *Host
	ep       *fakeEndpoint
	x        *statemachine.Executor
	now      atomic.Int64 // the Host's clock, in Unix nanoseconds
	advanced []timeline.Order
}

// newCkptHarness builds a 2-pillar group of n replicas with checkpoint
// interval 4 and window 16 (so at most 16/4+1 = 5 announcements are
// retained per announcing replica).
func newCkptHarness(t *testing.T, proto config.Protocol) *ckptHarness[*message.Checkpoint] {
	return newCkptHarnessIn(t, proto, "")
}

// newCkptHarnessIn is newCkptHarness on a host with data dir dataDir.
func newCkptHarnessIn(t *testing.T, proto config.Protocol, dataDir string) *ckptHarness[*message.Checkpoint] {
	return newTypedHarness(t, proto, dataDir, checkCkpt)
}

// newTypedHarness is newCkptHarness for announcements of type M, which
// check verifies.
func newTypedHarness[M message.Message](t *testing.T, proto config.Protocol, dataDir string,
	check func(M) (Announcement[M], error)) *ckptHarness[M] {
	t.Helper()
	cfg := config.Default(proto)
	cfg.Pillars, cfg.CheckpointInterval, cfg.WindowSize = 2, 4, 16
	c := &ckptHarness[M]{ep: &fakeEndpoint{}, x: statemachine.NewExecutor(&logApp{})}
	c.now.Store(time.Unix(1e9, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, c.now.Load()) }
	opts := Options{Config: cfg, Endpoint: c.ep, DataDir: dataDir, Now: now, Telemetry: telemetry.NewFor("test", 0)}
	h, err := NewHost("test", opts, c.x, Handlers{
		Pillar: func(uint32, any) {}, Coord: func(any) {}, Close: func(bool) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.h = h
	t.Cleanup(c.h.Stop)
	c.Checkpoints = NewCheckpoints(c.h, check, func(st *StableCkpt[M]) {
		c.advanced = append(c.advanced, st.Order)
	})
	return c
}

// The harness's stand-in for a trusted subsystem: an announcement is
// certified when its MAC field is its own digest.

func signedCkpt(r uint32, o timeline.Order, d crypto.Digest) *message.Checkpoint {
	ck := &message.Checkpoint{Order: o, Replica: r, StateDigest: d}
	ck.Cert.MAC = crypto.MAC(ck.Digest())
	return ck
}

func checkCkpt(ck *message.Checkpoint) (Announcement[*message.Checkpoint], error) {
	a := Announcement[*message.Checkpoint]{Replica: ck.Replica, Order: ck.Order, Digest: ck.StateDigest, Msg: ck}
	if ck.Cert.MAC != crypto.MAC(ck.Digest()) {
		return a, errors.New("forged checkpoint")
	}
	return a, nil
}

func signedPBFTCkpt(r uint32, o timeline.Order, d crypto.Digest) *message.PBFTCheckpoint {
	ck := &message.PBFTCheckpoint{Order: o, Replica: r, StateDigest: d}
	ck.Proof.TCert.MAC = crypto.MAC(ck.Digest())
	return ck
}

func checkPBFTCkpt(ck *message.PBFTCheckpoint) (Announcement[*message.PBFTCheckpoint], error) {
	a := Announcement[*message.PBFTCheckpoint]{Replica: ck.Replica, Order: ck.Order, Digest: ck.StateDigest, Msg: ck}
	if ck.Proof.TCert.MAC != crypto.MAC(ck.Digest()) {
		return a, errors.New("forged checkpoint")
	}
	return a, nil
}

func announce(r uint32, o timeline.Order, state string) Announcement[*message.Checkpoint] {
	return announceDigest(r, o, crypto.Hash([]byte(state)))
}

func announceDigest(r uint32, o timeline.Order, d crypto.Digest) Announcement[*message.Checkpoint] {
	a, _ := checkCkpt(signedCkpt(r, o, d))
	return a
}

// boundary executes this replica's executor up to order o and returns
// the checkpoint view the execution stage would post there.
func (c *ckptHarness[M]) boundary(o timeline.Order) *statemachine.CheckpointView {
	for next := c.x.NextOrder(); next <= o; next++ {
		c.x.Submit(next, instance(next))
	}
	return c.x.CheckpointView()
}

// advances drains the Advance events queued for pillar u.
func (c *ckptHarness[M]) advances(u int) (out []timeline.Order) {
	for {
		ev, ok := c.h.PillarBox[u].TryGet()
		if !ok {
			return out
		}
		if a, ok := ev.(Advance); ok {
			out = append(out, a.Order)
		}
	}
}

func TestCheckpointsQuorumStabilizesOnce(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX) // n = 3, quorum 2
	c.Handle(announce(1, 4, "s"))
	if c.Stable().Order != 0 || len(c.advanced) != 0 {
		t.Fatal("stable with a single announcement")
	}
	c.Handle(announce(2, 4, "s"))
	st := c.Stable()
	if st.Order != 4 || st.Digest != crypto.Hash([]byte("s")) || len(st.Proof) != 2 {
		t.Fatalf("stable = %+v", st)
	}
	c.Handle(announce(0, 4, "s")) // a late third vote changes nothing
	if len(c.advanced) != 1 || c.advanced[0] != 4 {
		t.Fatalf("protocol told to advance %v, want [4]", c.advanced)
	}
	for u := range c.h.PillarBox {
		if got := c.advances(u); len(got) != 1 || got[0] != 4 {
			t.Fatalf("pillar %d windows advanced %v, want [4]", u, got)
		}
	}
	// Execution is behind the stable checkpoint: state was requested.
	if sends := c.ep.sends(); len(sends) != 2 {
		t.Fatalf("%d sends, want the STATE-REQUEST multicast", len(sends))
	} else if _, ok := sends[0].msg.(*message.StateRequest); !ok {
		t.Fatalf("sent %T, want *message.StateRequest", sends[0].msg)
	}
}

func TestCheckpointsConflictsAndDuplicatesDoNotCount(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	c.Handle(announce(1, 4, "good"))
	c.Handle(announce(2, 4, "bad"))
	if c.Stable().Order != 0 {
		t.Fatal("conflicting digests reached stability")
	}
	c.Handle(announce(1, 4, "good")) // duplicate
	c.Handle(announce(2, 4, "good")) // equivocation: first announcement wins
	if c.Stable().Order != 0 {
		t.Fatal("one replica counted twice")
	}
	// A second matching announcement stabilizes despite the faulty one.
	c.Handle(announce(0, 4, "good"))
	if st := c.Stable(); st.Order != 4 || st.Digest != crypto.Hash([]byte("good")) || len(st.Proof) != 2 {
		t.Fatalf("stable = %+v", st)
	}
}

func TestCheckpointsQuorumOfThree(t *testing.T) {
	c := newCkptHarness(t, config.PBFTcop) // n = 4, quorum 3
	c.Handle(announce(0, 4, "s"))
	c.Handle(announce(1, 4, "s"))
	if c.Stable().Order != 0 {
		t.Fatal("stable below quorum")
	}
	c.Handle(announce(2, 4, "s"))
	if st := c.Stable(); st.Order != 4 || len(st.Proof) != 3 {
		t.Fatalf("stable = %+v", st)
	}
}

func TestCheckpointsObsoleteAndOutOfOrder(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	// A later checkpoint can stabilize first (pillar parallelism); the
	// earlier one is then obsolete and garbage collected.
	c.Handle(announce(1, 4, "4"))
	c.Handle(announce(1, 8, "8"))
	c.Handle(announce(2, 8, "8"))
	if c.Stable().Order != 8 || len(c.pending) != 0 {
		t.Fatalf("stable %d, %d pending orders", c.Stable().Order, len(c.pending))
	}
	c.Handle(announce(2, 4, "4"))
	c.Handle(announce(0, 8, "8"))
	if c.Stable().Order != 8 || len(c.pending) != 0 || len(c.advanced) != 1 {
		t.Fatal("obsolete or already-stable announcement recorded")
	}
	for _, o := range []timeline.Order{12, 16} {
		c.Handle(announce(1, o, "s"))
		c.Handle(announce(2, o, "s"))
		if c.Stable().Order != o {
			t.Fatalf("order %d did not stabilize", o)
		}
	}
}

func TestCheckpointsOwnAnnouncementRetransmittedUntilStable(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	own := announce(0, 4, "s")
	c.Announce(1, 0, own) // what the owner pillar does after certifying
	if sends := c.ep.sends(); len(sends) != 2 || sends[0].msg != own.Msg {
		t.Fatalf("own announcement not multicast: %+v", sends)
	}
	ev, ok := c.h.CoordBox.TryGet()
	if !ok {
		t.Fatal("own announcement not handed to the coordinator mailbox")
	}
	c.Handle(ev)
	for tick := 1; tick <= 2; tick++ {
		c.Tick()
		if sends := c.ep.sends(); len(sends) != 2+2*tick || sends[len(sends)-1].msg != own.Msg {
			t.Fatalf("tick %d: unstable own announcement not re-multicast (%d sends)", tick, len(sends))
		}
	}
	c.Handle(announce(1, 4, "s"))
	if c.Stable().Order != 4 || len(c.own) != 0 {
		t.Fatal("own announcement not pruned at stability")
	}
	before := len(c.ep.sends())
	c.lastStateReq = c.h.Now() // isolate the retransmission from CatchUp's STATE-REQUEST
	c.Tick()
	if got := len(c.ep.sends()); got != before {
		t.Fatalf("stable announcement still retransmitted (%d new sends)", got-before)
	}
}

func TestCheckpointsBoundaryDispatchAndLateBoundary(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	boundary := c.boundary
	// Order 4 is checkpoint #1: round-robin owner is pillar 1.
	v4 := boundary(4)
	c.Handle(v4)
	if ev, ok := c.h.PillarBox[1].TryGet(); !ok || ev != (CkptDue{Order: 4, Digest: v4.StateDigest()}) {
		t.Fatalf("owner pillar got %+v", ev)
	}
	if _, ok := c.h.PillarBox[0].TryGet(); ok {
		t.Fatal("checkpoint instance dispatched to a second pillar")
	}
	// Order 8 stabilizes through the peers before this replica executes
	// it: the record has no state to serve transfers from.
	v8 := boundary(8)
	d8 := v8.StateDigest()
	for _, r := range []uint32{1, 2} {
		c.Handle(Announcement[*message.Checkpoint]{Replica: r, Order: 8, Digest: d8, Msg: &message.Checkpoint{Order: 8, Replica: r}})
	}
	if st := c.Stable(); st.Order != 8 || st.Snapshot != nil {
		t.Fatalf("stable = %+v", st)
	}
	c.advances(0)
	c.advances(1)
	// The boundary executed late completes the record and still yields
	// the digest, so a protocol that announces stabilized boundaries
	// (MinBFT: a peer that missed one announcement needs ours) can; the
	// pillar-structured dispatch does not announce it again.
	digest, ahead := c.Candidate(v8)
	if ahead || digest != d8 {
		t.Fatalf("late boundary: ahead=%v digest match=%v", ahead, digest == d8)
	}
	if st := c.Stable(); st.Snapshot == nil || st.RV == nil {
		t.Fatal("late boundary did not complete the stable record's snapshot")
	}
	c.Handle(v8)
	for u := range c.h.PillarBox {
		if ev, ok := c.h.PillarBox[u].TryGet(); ok {
			t.Fatalf("stabilized boundary dispatched again: %+v", ev)
		}
	}
	// Announcing it is a multicast and nothing else: it is not retained
	// for retransmission.
	c.Announce(0, 0, Announcement[*message.Checkpoint]{Replica: 0, Order: 8, Digest: d8, Msg: &message.Checkpoint{Order: 8}})
	ev, _ := c.h.CoordBox.TryGet()
	c.Handle(ev)
	if len(c.own) != 0 || len(c.pending) != 0 {
		t.Fatal("announcement of a stable checkpoint retained")
	}
}

// TestCheckpointsAnnouncementsBoundedPerReplica pins the memory bound:
// one faulty replica's validly certified announcements for ever new
// future orders must not accumulate.
func TestCheckpointsAnnouncementsBoundedPerReplica(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	bound := int(c.h.Cfg.WindowSize/c.h.Cfg.CheckpointInterval) + 1
	for i := 1; i <= 10000; i++ {
		c.Handle(announce(2, timeline.Order(4*i), "junk"))
		if len(c.pending) > c.h.Cfg.N*bound {
			t.Fatalf("after %d announcements %d orders pending, bound %d", i, len(c.pending), c.h.Cfg.N*bound)
		}
	}
	if len(c.pending) != bound {
		t.Fatalf("%d orders pending from one replica, want its newest %d", len(c.pending), bound)
	}
	// A genuine quorum at a real boundary still stabilizes.
	c.Handle(announce(0, 8, "s"))
	c.Handle(announce(1, 8, "s"))
	if c.Stable().Order != 8 {
		t.Fatal("genuine quorum did not stabilize")
	}
}

// TestCheckpointsLoggedAndRestored pins the host's half of a cold
// restart: decisions and a stable checkpoint are logged as they happen,
// and the next host on the same data dir replays the decisions into its
// executor, adopts the checkpoint with its proof, and slides every
// pillar window to it before any loop runs.
func TestCheckpointsLoggedAndRestored(t *testing.T) {
	dir := t.TempDir()
	c := newCkptHarnessIn(t, config.HybsterX, dir)
	for o := timeline.Order(1); o <= 5; o++ {
		c.h.Decide(0, o, instance(o), false)
	}
	c.Handle(announce(1, 4, "s"))
	c.Handle(announce(2, 4, "s"))
	c.h.Stop()

	r := newCkptHarnessIn(t, config.HybsterX, dir)
	if got := r.h.LastExecuted(); got != 5 {
		t.Fatalf("replayed to order %d, want 5", got)
	}
	st := r.Stable()
	if st.Order != 4 || st.Digest != crypto.Hash([]byte("s")) || len(st.Proof) != 2 || st.Proof[0].Order != 4 {
		t.Fatalf("restored stable checkpoint %+v", st)
	}
	for u := range r.h.PillarBox {
		if got := r.advances(u); len(got) != 1 || got[0] != 4 {
			t.Fatalf("pillar %d windows advanced %v, want [4]", u, got)
		}
	}
}

// sent returns the messages of type T the harness endpoint sent.
func sent[T message.Message](ep *fakeEndpoint) (out []T) {
	for _, s := range ep.sends() {
		if m, ok := s.msg.(T); ok {
			out = append(out, m)
		}
	}
	return out
}

// TestCheckpointsServeCheckpointExecutedIntervalsBeforeItStabilized
// pins that a stable checkpoint this replica executed can be served: it
// executes boundaries 4, 8 and 12 before 4 stabilizes, and still holds
// 4's state to answer a STATE-REQUEST with, certificate included. A
// request whose Replica is not its sender is not answered.
func TestCheckpointsServeCheckpointExecutedIntervalsBeforeItStabilized(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	var d4 crypto.Digest
	for _, o := range []timeline.Order{4, 8, 12} {
		d, ahead := c.Candidate(c.boundary(o))
		if !ahead {
			t.Fatalf("boundary %d not ahead of the stable checkpoint", o)
		}
		if o == 4 {
			d4 = d
		}
	}
	c.Handle(announceDigest(1, 4, d4))
	c.Handle(announceDigest(2, 4, d4))
	if st := c.Stable(); st.Order != 4 || st.Snapshot == nil {
		t.Fatalf("stable checkpoint %d recorded with snapshot %v", st.Order, st.Snapshot != nil)
	}
	c.Serve(2, &message.StateRequest{Replica: 1, From: 1})
	if reps := sent[*message.StateReply](c.ep); len(reps) != 0 {
		t.Fatalf("answered a STATE-REQUEST whose Replica is not its sender: %+v", reps)
	}
	c.Serve(1, &message.StateRequest{Replica: 1, From: 1})
	reps := sent[*message.StateReply](c.ep)
	if len(reps) != 1 || reps[0].CkptOrder != 4 || len(reps[0].Proof) != 2 {
		t.Fatalf("STATE-REPLYs %+v, want one for checkpoint 4 with its two announcements", reps)
	}
}

// TestStateReplyInstallsByItsCertificate pins that a STATE-REPLY
// carries its protocol's own certificate: a PBFT replica installs a
// checkpoint it never recorded when a quorum of PBFT announcements
// certifies it, and refuses the same reply with one forged announcement
// or from a sender that is not its Replica.
func TestStateReplyInstallsByItsCertificate(t *testing.T) {
	c := newTypedHarness(t, config.PBFTcop, "", checkPBFTCkpt) // n = 4, quorum 3
	c.h.spawn(c.h.Exec.run)
	donor := statemachine.NewExecutor(&logApp{})
	for o := timeline.Order(1); o <= 8; o++ {
		donor.Submit(o, instance(o))
	}
	snap, rv := donor.Snapshot(), donor.ReplyVector()
	d := crypto.Combine(crypto.Hash(snap), crypto.Hash(rv))
	reply := func(proof ...*message.PBFTCheckpoint) *message.StateReply {
		rep := &message.StateReply{Replica: 1, CkptOrder: 8, Snapshot: snap, ReplyVector: rv}
		for _, m := range proof {
			rep.Proof = append(rep.Proof, m)
		}
		return rep
	}
	forged := signedPBFTCkpt(3, 8, d)
	forged.Proof.TCert.MAC[0] ^= 1
	quorum := []*message.PBFTCheckpoint{signedPBFTCkpt(1, 8, d), signedPBFTCkpt(2, 8, d), signedPBFTCkpt(3, 8, d)}

	c.Install(1, reply(quorum[0], quorum[1], forged))
	c.Install(2, reply(quorum...))
	c.Install(1, &message.StateReply{Replica: 1, CkptOrder: 8, Snapshot: snap, ReplyVector: rv,
		Proof: []message.Message{signedCkpt(1, 8, d), signedCkpt(2, 8, d), signedCkpt(3, 8, d)}})
	if got, st := c.h.LastExecuted(), c.Stable(); got != 0 || st.Order != 0 {
		t.Fatalf("installed to %d, stable %d: a forged, misaddressed or foreign-typed certificate was accepted", got, st.Order)
	}
	c.Install(1, reply(quorum...))
	if got := c.h.LastExecuted(); got != 8 {
		t.Fatalf("executed %d after a certified STATE-REPLY for 8", got)
	}
	if st := c.Stable(); st.Order != 8 || st.Digest != d || st.Snapshot == nil || len(st.Proof) != 3 {
		t.Fatalf("stable checkpoint %d (digest match %v, snapshot %v, %d announcements)",
			st.Order, st.Digest == d, st.Snapshot != nil, len(st.Proof))
	}
	for u := range c.h.PillarBox {
		if got := c.advances(u); len(got) != 1 || got[0] != 8 {
			t.Fatalf("pillar %d windows advanced %v, want [8]", u, got)
		}
	}
}

// TestBehindIsRetriedUntilExecutionMoves pins the catch-up rule's
// second half: after a Behind, every tick past the 1 s rate limit asks
// for state again for as long as execution has not moved, and none does
// once it has.
func TestBehindIsRetriedUntilExecutionMoves(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	c.h.spawn(c.h.Exec.run)
	rounds := func() int { return len(sent[*message.StateRequest](c.ep)) / (c.h.Cfg.N - 1) }
	tick := func(d time.Duration) int {
		c.now.Add(int64(d))
		c.Tick()
		return rounds()
	}
	c.Handle(Behind{})
	if got := rounds(); got != 1 {
		t.Fatalf("%d STATE-REQUEST rounds after a Behind, want 1", got)
	}
	if got := tick(500 * time.Millisecond); got != 1 {
		t.Fatalf("%d rounds within the rate limit, want 1", got)
	}
	if got := tick(600 * time.Millisecond); got != 2 {
		t.Fatalf("%d rounds after the rate limit with execution standing still, want 2", got)
	}
	c.h.Decide(0, 1, instance(1), false)
	for c.h.LastExecuted() < 1 {
		time.Sleep(time.Millisecond)
	}
	if got := tick(2 * time.Second); got != 2 {
		t.Fatalf("%d rounds after execution moved past the Behind, want 2", got)
	}
}

// TestCatchUpWaitsForExecutionToStall pins that a replica whose
// execution is moving does not fetch the stable checkpoint it is about
// to reach — in a fault-free group the peers announce a boundary first —
// and that it asks once execution has stood still below it for a tick,
// or at once when it has not committed a whole interval below it.
func TestCatchUpWaitsForExecutionToStall(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	c.h.spawn(c.h.Exec.run)
	asked := func() int { return len(sent[*message.StateRequest](c.ep)) }
	for o := timeline.Order(1); o <= 4; o++ {
		c.h.Decide(0, o, instance(o), false)
	}
	for c.h.LastExecuted() < 4 {
		time.Sleep(100 * time.Microsecond)
	}
	c.Tick() // execution seen at 4, now
	// Orders 6 to 8 commit, 5 is missing: execution stays at 4.
	for o := timeline.Order(6); o <= 8; o++ {
		c.h.Decide(0, o, instance(o), false)
	}
	c.Handle(announce(1, 8, "s"))
	c.Handle(announce(2, 8, "s"))
	if c.Stable().Order != 8 {
		t.Fatalf("stable %d, want 8", c.Stable().Order)
	}
	if n := asked(); n != 0 {
		t.Fatalf("%d STATE-REQUESTs for a checkpoint execution had just been moving towards", n)
	}
	tick := c.h.timeout / 4
	c.now.Add(int64(tick / 2))
	c.Tick()
	if n := asked(); n != 0 {
		t.Fatalf("%d STATE-REQUESTs before execution stood still for a tick", n)
	}
	c.now.Add(int64(tick / 2))
	c.Tick()
	if n := asked(); n == 0 {
		t.Fatal("no STATE-REQUEST after execution stood still below the stable checkpoint for a tick")
	}

	// Order 5 arrives and execution moves to 8; the group's stable
	// checkpoint moves to 16, more than an interval (4) beyond order 8,
	// the highest this replica committed.
	c.h.Decide(0, 5, instance(5), false)
	for c.h.LastExecuted() < 8 {
		time.Sleep(100 * time.Microsecond)
	}
	c.now.Add(int64(time.Second)) // past the rate limit
	c.Tick()
	before := asked()
	c.Handle(announce(1, 16, "t"))
	c.Handle(announce(2, 16, "t"))
	if n := asked(); c.Stable().Order != 16 || n == before {
		t.Fatalf("stable %d and %d new STATE-REQUESTs: a replica a whole interval behind in commits did not ask at once",
			c.Stable().Order, n-before)
	}
}

// TestInstallRaisesCommitted pins that a replica which follows the
// group by state transfers reads as committed up to what it installed:
// the certificate says the group committed every order below the
// checkpoint, so Standing keeps Committed ≥ Executed and CatchUp's
// "missed a whole interval" branch does not fire on every tick.
func TestInstallRaisesCommitted(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX) // n = 3, quorum 2
	c.h.spawn(c.h.Exec.run)
	c.h.Decide(0, 1, instance(1), false)
	for c.h.LastExecuted() < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	donor := statemachine.NewExecutor(&logApp{})
	for o := timeline.Order(1); o <= 12; o++ {
		donor.Submit(o, instance(o))
	}
	snap, rv := donor.Snapshot(), donor.ReplyVector()
	d := crypto.Combine(crypto.Hash(snap), crypto.Hash(rv))
	c.Install(1, &message.StateReply{Replica: 1, CkptOrder: 12, Snapshot: snap, ReplyVector: rv,
		Proof: []message.Message{signedCkpt(1, 12, d), signedCkpt(2, 12, d)}})
	if st := c.h.Standing(); st.Executed != 12 || st.Committed != 12 {
		t.Fatalf("after installing a transfer at 12: %v, want exec=12 committed=12", st)
	}
	before := len(sent[*message.StateRequest](c.ep))
	c.now.Add(int64(2 * time.Second)) // past the rate limit
	c.Tick()
	if n := len(sent[*message.StateRequest](c.ep)) - before; n != 0 {
		t.Fatalf("%d STATE-REQUESTs right after an install reached the stable checkpoint", n)
	}
}

// TestInstallOvertakenByExecutionIsNotCounted pins that a verified
// transfer whose checkpoint execution reached while the transfer queued
// behind the decisions below it is neither installed nor counted.
func TestInstallOvertakenByExecutionIsNotCounted(t *testing.T) {
	c := newCkptHarness(t, config.HybsterX)
	// Committed and queued; the execution stage has not run yet.
	for o := timeline.Order(1); o <= 8; o++ {
		c.h.Decide(0, o, instance(o), false)
	}
	donor := statemachine.NewExecutor(&logApp{})
	for o := timeline.Order(1); o <= 8; o++ {
		donor.Submit(o, instance(o))
	}
	snap, rv := donor.Snapshot(), donor.ReplyVector()
	d := crypto.Combine(crypto.Hash(snap), crypto.Hash(rv))
	rep := &message.StateReply{Replica: 1, CkptOrder: 8, Snapshot: snap, ReplyVector: rv,
		Proof: []message.Message{signedCkpt(1, 8, d), signedCkpt(2, 8, d)}}
	// Verified while execution is at 0, the transfer reaches the
	// execution stage behind the eight decisions.
	done := make(chan struct{})
	go func() { defer close(done); c.Install(1, rep) }()
	for c.h.Exec.inbox.Len() < 9 {
		time.Sleep(100 * time.Microsecond)
	}
	c.h.spawn(c.h.Exec.run)
	<-done
	if got := c.h.LastExecuted(); got != 8 {
		t.Fatalf("executed %d, want 8", got)
	}
	if n := c.h.Met.StateXfers.Value(); n != 0 {
		t.Fatalf("%d state transfers counted for a checkpoint execution had reached", n)
	}
}
