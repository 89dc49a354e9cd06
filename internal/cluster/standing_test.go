package cluster_test

import (
	"strings"
	"testing"
	"time"

	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/engine"
	"hybster/internal/timeline"
)

// Why a replica trails its group, as its standing alone tells it.
const (
	windowRefuses    = "window refuses"
	stateUnanswered  = "state request unanswered"
	execBacklog      = "exec backlog"
	keepingUp        = "keeping up"
	laggardWindows   = 4 // how far the group runs ahead of the isolated replica
	standingLoadSize = 4 // concurrent clients
)

// cause names which of the three reasons a replica falls behind holds
// for s, from its fields alone, while the group executed up to group:
// it asked for state that has not arrived, it committed far more than
// it executed, or the group is past the window its stable checkpoint
// opens.
func cause(s engine.Standing, group timeline.Order, cfg config.Config) string {
	switch {
	case !s.StateRequested.IsZero() && s.Executed < s.Stable:
		return stateUnanswered
	case s.Committed > s.Executed+cfg.CheckpointInterval:
		return execBacklog
	case group > s.Stable+cfg.WindowSize:
		return windowRefuses
	}
	return keepingUp
}

// TestStandingSaysWhyAReplicaIsBehind isolates one follower of each
// protocol configuration until the group is four windows ahead, heals
// it, and follows its standing until it caught up: before the heal the
// standing must say "window refuses"; after it, each sample names the
// one cause that holds, or none, and the catch-up must show a state
// request made after the heal (four windows are pruned from every
// log, so only a transferred snapshot can bridge them). The sequence of
// causes is logged; a replica that does not catch up fails with every
// replica's standing.
//
// The loaded heal keeps the load running, so new checkpoints stabilize
// after the heal. The quiet heal stops it first and then sends one
// request, at an order that is no checkpoint boundary: the follower
// learns that the group is ahead only from that request's ordering
// messages, and must still reach the group's stable checkpoint. Nothing
// tells an idle replica which view the group is in, and a replica
// pending a view change drops the group's ordering traffic unread, so a
// quiet heal that would start with the group and the follower not in
// one view is attempted again (at most three attempts). The follower
// does not leave its view alone, but the group can: PBFT with this
// 32-order window changes views several times a second under load.
func TestStandingSaysWhyAReplicaIsBehind(t *testing.T) {
	for _, p := range []config.Protocol{config.HybsterS, config.HybsterX, config.PBFTcop, config.HybridPBFT, config.MinBFT} {
		t.Run(p.String(), func(t *testing.T) {
			t.Run("loaded heal", func(t *testing.T) { behindAndHealed(t, p, false) })
			t.Run("quiet heal", func(t *testing.T) {
				for attempt := 1; !behindAndHealed(t, p, true); attempt++ {
					if attempt == 3 {
						t.Fatal("the group and the follower were not in one view in each of three attempts")
					}
					t.Logf("attempt %d: the group and the follower were not in one view at the heal", attempt)
				}
			})
		})
	}
}

// behindAndHealed runs one isolation and heal; it reports false, having
// tested nothing, when a quiet heal would start with the group and the
// follower not in one view.
func behindAndHealed(t *testing.T, p config.Protocol, quiet bool) bool {
	cfg := config.Default(p)
	cfg.Pillars = min(cfg.Pillars, 2)
	cfg.BatchSize = 8
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 32
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	c, err := cluster.Boot(cluster.Options{Config: cfg}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	stopLoad := startLoad(t, c, standingLoadSize)
	defer stopLoad()

	lag := uint32(cfg.N - 1) // a follower in view 0
	frontier := func() timeline.Order {
		var low timeline.Order
		for id := uint32(0); id < lag; id++ {
			if o := c.Replica(id).LastExecuted(); id == 0 || o < low {
				low = o
			}
		}
		return low
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s", what, c.Standings())
			}
		}
	}

	// The follower first holds a stable checkpoint of its own and keeps
	// up with the group, and so does every other replica: isolating the
	// follower while another one trails would leave the rest without a
	// quorum.
	await("every replica keeps up past two windows", func() bool {
		s := *c.Standing(lag)
		return s.Stable >= 2*cfg.WindowSize && cause(s, frontier(), cfg) == keepingUp &&
			frontier()+cfg.WindowSize >= s.Executed
	})
	// The probe's client exists before the isolation, which cuts the
	// follower off from it too.
	probeClient, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer probeClient.Close()
	inOneView := func() bool {
		for id := uint32(0); int(id) < cfg.N; id++ {
			if s := c.Standing(id); s.View != c.Standing(lag).View || s.Pending != 0 {
				return false
			}
		}
		return true
	}
	if quiet && !inOneView() {
		return false
	}
	c.Isolate(lag)
	var before engine.Standing
	await("group runs four windows ahead", func() bool {
		before = *c.Standing(lag)
		return frontier() >= before.Executed+laggardWindows*cfg.WindowSize
	})
	target := frontier()
	if got := cause(before, target, cfg); got != windowRefuses {
		t.Fatalf("isolated replica %d: cause %q, want %q (group at %d): %v", lag, got, windowRefuses, target, before)
	}
	var probe func()
	if quiet {
		stopLoad()
		probe = func() {
			if _, err := probeClient.Invoke([]byte{1}, false); err != nil {
				t.Fatalf("probe request: %v: %s", err, c.Standings())
			}
		}
		// Wait for the group to settle, and step it off the order before
		// a boundary, so that the probe's order is no boundary.
		for settled := false; !settled; {
			o := frontier()
			time.Sleep(100 * time.Millisecond)
			if settled = frontier() == o; settled && cfg.IsCheckpoint(o+1) {
				probe()
				settled = false
			}
		}
		if !inOneView() {
			return false
		}
		target = 0
		for id := uint32(0); id < lag; id++ {
			target = max(target, c.Standing(id).Stable)
		}
	}

	healed := time.Now()
	c.HealAll()
	if quiet {
		probe()
	}
	seen := []string{windowRefuses}
	var after engine.Standing
	await("healed replica catches up", func() bool {
		after = *c.Standing(lag)
		if got := cause(after, frontier(), cfg); got != seen[len(seen)-1] {
			seen = append(seen, got)
		}
		return after.Executed >= target
	})
	if !after.StateRequested.After(healed) {
		t.Fatalf("r%d caught up four windows without asking for state: %v", lag, after)
	}
	t.Logf("r%d isolated at %v; after the heal: %s; caught up at %v", lag, before, strings.Join(seen, " → "), after)
	return true
}
