package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/engine"
	"hybster/internal/transport"
)

// TestSkippedViewEvidenceReachesPendingPeer pins that a view-change
// certificate outlives the step it justified (§5.2.3). r1 is gone and
// the r0↔r2 link is cut just after r2's VIEW-CHANGE(→2) left for r0, so
// r0 holds both halves of the certificate for view 2 and steps over it
// to view 3 when its patience runs out, while r2, which never got r0's
// half, may not leave view 2: r0 waits in 3 for a VIEW-CHANGE r2 is not
// allowed to send. Once the link heals, r2 keeps retransmitting its
// VIEW-CHANGE(→2); r0 must answer with its own parts for view 2 or the
// two never meet again.
//
// Time is the test's: the ViewChangeTimeout keeps the real ticker
// silent, the clock moves and the coordinators tick only when the test
// says so, and a replica stalls because the test notes work it holds.
func TestSkippedViewEvidenceReachesPendingPeer(t *testing.T) {
	for _, pillars := range []int{1, 2} {
		t.Run(fmt.Sprintf("pillars=%d", pillars), func(t *testing.T) {
			cfg := config.Default(config.HybsterS)
			if pillars > 1 {
				cfg = config.Default(config.HybsterX)
			}
			cfg.Pillars = pillars
			cfg.ViewChangeTimeout = time.Hour
			timeout := cfg.ViewChangeTimeout + time.Millisecond

			var clock atomic.Int64
			base := time.Now()
			now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
			net := transport.NewNetwork(transport.LinkProfile{}, 1)
			t.Cleanup(net.Close)
			r := make([]*Engine, cfg.N)
			for id := range r {
				r[id] = newEngineOn(t, net, cfg, uint32(id), now)
				r[id].Start()
			}
			advance := func(d time.Duration) { clock.Add(int64(d)) }
			tick := func(ids ...int) {
				for _, id := range ids {
					r[id].CoordBox.Put(engine.Tick{})
				}
			}
			stall := func(ids ...int) {
				for _, id := range ids {
					r[id].NoteWork()
				}
			}
			await := func(what string, cond func() bool) {
				t.Helper()
				if !eventually(time.Second, cond) {
					t.Fatalf("%s: r0 view=%d %s, r2 view=%d %s", what, r[0].View(), r[0].Standing(), r[2].View(), r[2].Standing())
				}
			}

			// All three stall in view 0 and install view 1 (r1 leads it).
			stall(0, 1, 2)
			advance(timeout)
			tick(0, 1, 2)
			await("view 1 installs", func() bool { return r[0].View() == 1 && r[1].View() == 1 && r[2].View() == 1 })

			// r1 is gone for good. r2 aborts into view 2 first; once its
			// VIEW-CHANGE is on the wire to r0 the link is cut, so r0's
			// own VIEW-CHANGE(→2) never reaches r2.
			r[1].Stop()
			stall(0, 2)
			advance(timeout)
			tick(2)
			await("r2 aborts into view 2", func() bool { return r[2].Standing() == "pending→2 desired=2 vcs[2]={r2}" })
			net.Partition(0, 2)
			tick(0)
			await("r0 aborts into view 2", func() bool { return r[0].Standing() == "pending→2 desired=2 vcs[2]={r0 r2}" })

			// Patience runs out at both: r0 steps over view 2 on its
			// certificate, r2 may not; r0's patience runs out once more.
			advance(timeout)
			tick(0, 2)
			await("r0 steps to view 3", func() bool {
				return r[0].Standing() == "pending→3 desired=3 vcs[3]={r0}" && r[2].Standing() == "pending→2 desired=3 vcs[2]={r2}"
			})
			advance(2 * timeout)
			tick(0)
			await("r0 wants view 4", func() bool { return r[0].Standing() == "pending→3 desired=4 vcs[3]={r0}" })

			// Heal. Without r0's parts for view 2, r2 stays pending at 2
			// however often the tick comes and r0 at 3, which needs r2.
			net.Heal(0, 2)
			met := func() bool { return r[0].View() >= 2 && r[0].View() == r[2].View() }
			for round := 0; !met(); round++ {
				if round == 10 {
					t.Fatalf("no view installed at both after %d rounds: r0 view=%d %s, r2 view=%d %s",
						round, r[0].View(), r[0].Standing(), r[2].View(), r[2].Standing())
				}
				stall(0, 2)
				advance(timeout)
				tick(0, 2)
				eventually(200*time.Millisecond, met)
			}
			v := r[0].View()
			want := fmt.Sprintf("desired=%d", v)
			await("both settle in the view", func() bool { return r[0].Standing() == want && r[2].Standing() == want })
		})
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
