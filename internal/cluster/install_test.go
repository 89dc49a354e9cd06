package cluster_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// gate is a replica's endpoint whose inbound messages pass only while
// admit says so, and which records the checkpoint each NEW-VIEW it
// delivers claims: the newest stable checkpoint among its VIEW-CHANGEs.
type gate struct {
	transport.Endpoint
	admit atomic.Pointer[func(message.Message) bool]

	mu     sync.Mutex
	claims map[timeline.View]timeline.Order
}

func (g *gate) Handle(h transport.Handler) {
	g.Endpoint.Handle(func(from uint32, m message.Message) {
		if admit := g.admit.Load(); admit != nil && !(*admit)(m) {
			return
		}
		g.note(m)
		h(from, m)
	})
}

func (g *gate) set(admit func(message.Message) bool) { g.admit.Store(&admit) }

// note records the checkpoint claim of a NEW-VIEW of any protocol.
func (g *gate) note(m message.Message) {
	var w timeline.View
	var claimed []timeline.Order
	switch nv := m.(type) {
	case *message.NewView:
		w = nv.View
		for _, vc := range nv.VCs {
			claimed = append(claimed, vc.CkptOrder)
		}
	case *message.PBFTNewView:
		w = nv.View
		for _, vc := range nv.VCs {
			claimed = append(claimed, vc.CkptOrder)
		}
	case *message.MinNewView:
		w = nv.View
		for _, vc := range nv.VCs {
			claimed = append(claimed, vc.CkptOrder)
		}
	default:
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, o := range claimed {
		g.claims[w] = max(g.claims[w], o)
	}
}

func (g *gate) claim(w timeline.View) (timeline.Order, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	o, ok := g.claims[w]
	return o, ok
}

// TestInstallAdoptsTheNewViewCheckpointClaim lets a follower of each
// protocol configuration fall five windows behind, then crashes the
// leader: the follower is needed for the next view's quorum, but it
// receives none of its peers' VIEW-CHANGEs, CHECKPOINTs or state — only
// client requests, SUSPECTs and the NEW-VIEW. The
// NEW-VIEW claims the group's stable checkpoint, which is above the
// follower's own; once the follower installs the view, its standing
// must show that claim as its stable checkpoint and a state request for
// it. (MinBFT needs the five windows: a NEW-VIEW re-anchors a stream
// only across a counter gap beyond its holdback horizon.) The follower
// leads neither the group's view nor the next one. An attempt in which
// the group changed views before the crash is run again: the deaf
// follower suspects its view alone, but a peer starved of execution for
// a view-change timeout is the f+1-th suspicion.
func TestInstallAdoptsTheNewViewCheckpointClaim(t *testing.T) {
	for _, p := range []config.Protocol{config.HybsterS, config.HybsterX, config.PBFTcop, config.HybridPBFT, config.MinBFT} {
		t.Run(p.String(), func(t *testing.T) {
			for attempt := 1; !installAdoptsClaim(t, p); attempt++ {
				if attempt == 3 {
					t.Fatal("the group changed views before the leader crashed in every attempt")
				}
			}
		})
	}
}

// installAdoptsClaim runs one attempt of the scenario; false means the
// group did not stay in one view until the crash.
func installAdoptsClaim(t *testing.T, p config.Protocol) bool {
	cfg := config.Default(p)
	cfg.Pillars = min(cfg.Pillars, 2)
	cfg.BatchSize = 8
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 32
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	gates := make([]*gate, cfg.N)
	c, err := cluster.Boot(cluster.Options{Config: cfg,
		WrapEndpoint: func(id uint32, ep transport.Endpoint) transport.Endpoint {
			gates[id] = &gate{Endpoint: ep, claims: make(map[timeline.View]timeline.Order)}
			return gates[id]
		}}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	defer startLoad(t, c, standingLoadSize)()
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s", what, c.Standings())
			}
		}
	}
	// stay reports whether every replica but skip is still in view v
	// with no view change pending.
	stay := func(v timeline.View, skip uint32) bool {
		for id := uint32(0); int(id) < cfg.N; id++ {
			if s := c.Standing(id); id != skip && (s.View != v || s.Pending != 0) {
				t.Logf("replica %d left view %d: %s", id, v, c.Standings())
				return false
			}
		}
		return true
	}

	var v timeline.View
	await("every replica holds a stable checkpoint in one view", func() bool {
		v = c.Standing(0).View
		for id := uint32(0); int(id) < cfg.N; id++ {
			if s := c.Standing(id); s.View != v || s.Pending != 0 || s.Stable < cfg.WindowSize {
				return false
			}
		}
		return true
	})
	leader, next := cfg.LeaderOf(v), cfg.LeaderOf(v+1)
	lag := uint32(cfg.N - 1)
	for lag == leader || lag == next {
		lag--
	}
	g := gates[lag]
	g.set(func(message.Message) bool { return false })
	own := *c.Standing(lag)
	if !stay(v, uint32(cfg.N)) {
		return false
	}
	await("the group runs five windows ahead", func() bool {
		for id := uint32(0); int(id) < cfg.N; id++ {
			if id != lag && c.Replica(id).LastExecuted() < own.Executed+5*cfg.WindowSize {
				return false
			}
		}
		return true
	})
	g.set(func(m message.Message) bool {
		switch m.(type) {
		case *message.Request, *message.Suspect,
			*message.NewView, *message.PBFTNewView, *message.MinNewView:
			return true
		}
		return false
	})
	if !stay(v, lag) {
		return false
	}
	c.Crash(leader)

	await("the follower installs a view", func() bool { return c.Standing(lag).View > v })
	w := c.Standing(lag).View
	claim, ok := g.claim(w)
	if !ok || claim <= own.Stable {
		t.Fatalf("r%d installed view %d, whose NEW-VIEW claims %d (seen %v) over its own %d: %s",
			lag, w, claim, ok, own.Stable, c.Standings())
	}
	// The install step publishes with the coordinator event that ran
	// it, a moment after the view.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s := *c.Standing(lag)
		if s.Stable == claim && !s.StateRequested.IsZero() {
			return true
		}
		if time.Now().After(deadline) {
			t.Fatalf("r%d installed view %d claiming stable checkpoint %d, but stands at stable=%d statereq=%v (own was %d): %s",
				lag, w, claim, s.Stable, s.StateRequested, own.Stable, c.Standings())
		}
	}
}
