package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// tickedGroup is a Hybster group on one memnet network whose time is
// the test's: the ViewChangeTimeout keeps the real ticker silent, the
// clock moves and the coordinators tick only when the test says so, and
// a replica stalls because the test notes work it holds.
type tickedGroup struct {
	t       *testing.T
	cfg     config.Config
	net     *transport.Network
	r       []*Engine
	base    time.Time
	clock   atomic.Int64
	timeout time.Duration // one view-change timeout and a bit
}

func newTickedGroup(t *testing.T, pillars int) *tickedGroup {
	cfg := config.Default(config.HybsterS)
	if pillars > 1 {
		cfg = config.Default(config.HybsterX)
	}
	cfg.Pillars = pillars
	cfg.ViewChangeTimeout = time.Hour
	g := &tickedGroup{t: t, cfg: cfg, net: transport.NewNetwork(transport.LinkProfile{}),
		r: make([]*Engine, cfg.N), base: time.Now(), timeout: cfg.ViewChangeTimeout + time.Millisecond}
	t.Cleanup(g.net.Close)
	for id := range g.r {
		g.start(id)
	}
	return g
}

// start boots replica id afresh: volatile, on a new platform, at view 0.
func (g *tickedGroup) start(id int) {
	now := func() time.Time { return g.base.Add(time.Duration(g.clock.Load())) }
	g.r[id] = newEngineOn(g.t, g.net, g.cfg, uint32(id), now)
	g.r[id].Start()
}

func (g *tickedGroup) advance(d time.Duration) { g.clock.Add(int64(d)) }

func (g *tickedGroup) tick(ids ...int) {
	for _, id := range ids {
		g.r[id].CoordBox.Put(engine.Tick{})
	}
}

// suspicion hands r[to] r[from]'s SUSPECT of view v as if it had just
// arrived (the inbound path checks its authenticator, before the
// coordinator loop).
func (g *tickedGroup) suspicion(from, to int, v timeline.View) {
	g.r[to].CoordBox.Put(engine.InMsg{From: uint32(from), Msg: &message.Suspect{Replica: uint32(from), View: v}})
}

func (g *tickedGroup) stall(ids ...int) {
	for _, id := range ids {
		g.r[id].NoteWork()
	}
}

// standsAt reports whether e's standing ends in the view-change clause
// want.
func standsAt(e *Engine, want string) bool {
	return strings.HasSuffix(e.Standing().String(), " "+want)
}

// standings prints where each live replica stands.
func (g *tickedGroup) standings() string {
	s := ""
	for id, e := range g.r {
		s += fmt.Sprintf(" r%d %v;", id, e.Standing())
	}
	return s
}

func (g *tickedGroup) await(what string, cond func() bool) {
	g.t.Helper()
	if !eventually(time.Second, cond) {
		g.t.Fatalf("%s:%s", what, g.standings())
	}
}

// TestSkippedViewEvidenceReachesPendingPeer pins that a view-change
// certificate outlives the step it justified (§5.2.3). r1 is gone and
// the r0↔r2 link is cut just after r2's VIEW-CHANGE(→2) left for r0, so
// r0 holds both halves of the certificate for view 2 and steps over it
// to view 3 when its patience runs out, while r2, which never got r0's
// half, may not leave view 2: r0 waits in 3 for a VIEW-CHANGE r2 is not
// allowed to send. Once the link heals, r2 keeps retransmitting its
// VIEW-CHANGE(→2); r0 must answer with its own parts for view 2 or the
// two never meet again.
func TestSkippedViewEvidenceReachesPendingPeer(t *testing.T) {
	for _, pillars := range []int{1, 2} {
		t.Run(fmt.Sprintf("pillars=%d", pillars), func(t *testing.T) {
			g := newTickedGroup(t, pillars)
			r := g.r

			// All three stall in view 0 and install view 1 (r1 leads it).
			g.stall(0, 1, 2)
			g.advance(g.timeout)
			g.tick(0, 1, 2)
			g.await("view 1 installs", func() bool { return r[0].View() == 1 && r[1].View() == 1 && r[2].View() == 1 })

			// r1 is gone for good. r2 aborts into view 2 first, on r0's
			// suspicion and its own; once its VIEW-CHANGE is on the wire
			// to r0 the link is cut, so r0's own VIEW-CHANGE(→2) never
			// reaches r2.
			r[1].Stop()
			g.stall(0, 2)
			g.advance(g.timeout)
			g.suspicion(0, 2, 1)
			g.tick(2)
			g.await("r2 aborts into view 2", func() bool { return standsAt(r[2], "pending→2 desired=2 vcs[2]={r2}") })
			g.net.Partition(0, 2)
			g.tick(0)
			g.await("r0 aborts into view 2", func() bool { return standsAt(r[0], "pending→2 desired=2 vcs[2]={r0 r2}") })

			// Patience runs out at both: r0 steps over view 2 on its
			// certificate, r2 may not; r0's patience runs out once more.
			g.advance(g.timeout)
			g.tick(0, 2)
			g.await("r0 steps to view 3", func() bool {
				return standsAt(r[0], "pending→3 desired=3 vcs[3]={r0}") && standsAt(r[2], "pending→2 desired=3 vcs[2]={r2}")
			})
			g.advance(2 * g.timeout)
			g.tick(0)
			g.await("r0 wants view 4", func() bool { return standsAt(r[0], "pending→3 desired=4 vcs[3]={r0}") })

			// Heal. Without r0's parts for view 2, r2 stays pending at 2
			// however often the tick comes and r0 at 3, which needs r2.
			g.net.Heal(0, 2)
			met := func() bool { return r[0].View() >= 2 && r[0].View() == r[2].View() }
			for round := 0; !met(); round++ {
				if round == 10 {
					t.Fatalf("no view installed at both after %d rounds:%s", round, g.standings())
				}
				g.stall(0, 2)
				g.advance(g.timeout)
				g.tick(0, 2)
				eventually(200*time.Millisecond, met)
			}
			want := fmt.Sprintf("desired=%d", r[0].View())
			g.await("both settle in the view", func() bool { return standsAt(r[0], want) && standsAt(r[2], want) })
		})
	}
}

// TestNewViewRelayedByNonLeaderInstalls pins that a NEW-VIEW counts on
// its certificate, whoever relays it (§5.2.3). The r1↔r2 link is cut,
// so r2 never hears from r1, the leader of view 1. r0 and r1 install
// view 1; r2, which holds r0's suspicion of view 0, aborts into it
// later, and r0 answers r2's VIEW-CHANGE(→1) by relaying the NEW-VIEW it
// holds. That relay is the only copy r2 can
// get, so r2 installs view 1 only if it checks the certificate's issuer
// against the view's leader rather than the sender.
func TestNewViewRelayedByNonLeaderInstalls(t *testing.T) {
	for _, pillars := range []int{1, 2} {
		t.Run(fmt.Sprintf("pillars=%d", pillars), func(t *testing.T) {
			g := newTickedGroup(t, pillars)
			r := g.r

			g.net.Partition(1, 2)
			g.stall(0, 1)
			g.advance(g.timeout)
			g.tick(0, 1)
			g.await("r0 and r1 install view 1", func() bool {
				return r[0].View() == 1 && r[1].View() == 1 && standsAt(r[2], "desired=0 sus[0]={r0}")
			})

			g.stall(2)
			g.advance(g.timeout)
			g.tick(2)
			g.await("r2 installs view 1 from r0's relay", func() bool {
				return r[2].View() == 1 && standsAt(r[2], "desired=1")
			})
		})
	}
}

// TestRestartedLeaderDoesNotReinstallItsView pins the one NEW-VIEW a
// replica refuses on a valid certificate: its own. r1 leads view 1 and
// restarts without its state, in view 0; when it suspects view 0, r0
// and r2, which installed view 1, relay the NEW-VIEW its first life
// issued. Installing it would make
// r1 lead a view whose proposals it no longer knows, with counters that
// may certify them a second time. r2 never aborts (cut off from r0, it
// sees one VIEW-CHANGE, too few to join) and installs view 1 on r1's
// NEW-VIEW: a VIEW-CHANGE(→1) of r2's still on its way to r1 would
// reach the restarted r1 and complete a quorum for it.
func TestRestartedLeaderDoesNotReinstallItsView(t *testing.T) {
	g := newTickedGroup(t, 1)
	g.net.Partition(0, 2)
	g.stall(0, 1)
	g.advance(g.timeout)
	g.tick(0, 1)
	g.await("view 1 installs", func() bool { return g.r[0].View() == 1 && g.r[1].View() == 1 && g.r[2].View() == 1 })
	g.net.Heal(0, 2)

	g.r[1].Stop()
	g.start(1)
	g.stall(1)
	g.advance(g.timeout)
	g.tick(1)
	g.await("restarted r1 suspects view 0", func() bool { return standsAt(g.r[1], "desired=0 sus[0]={r1}") })
	if eventually(300*time.Millisecond, func() bool { return g.r[1].View() == 1 }) {
		t.Fatalf("restarted leader installed its own relayed NEW-VIEW:%s", g.standings())
	}
}

// eventually polls cond until it holds or d of wall time passed,
// yielding the processor between polls instead of sleeping.
func eventually(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
