package cluster_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/enclave"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
)

// startLoad runs n closed-loop clients against c until the returned
// stop func is called (idempotent; it waits for the clients to return).
func startLoad(t *testing.T, c *cluster.Cluster, n int) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var load sync.WaitGroup
	stop = sync.OnceFunc(func() { close(done); load.Wait() })
	for i := 0; i < n; i++ {
		cl, err := c.NewClient(200 * time.Millisecond)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		load.Add(1)
		go func() {
			defer load.Done()
			defer cl.Close()
			for {
				select {
				case <-done:
					return
				default:
					_, _ = cl.Invoke([]byte{1}, false)
				}
			}
		}()
	}
	return stop
}

// stallableApp is a counter whose Execute waits while its gate is held
// for writing: a replica whose application stops answering for a while.
type stallableApp struct {
	*counter.Service
	gate *sync.RWMutex
}

func (a stallableApp) Execute(client uint32, payload []byte, readOnly bool) []byte {
	a.gate.RLock()
	defer a.gate.RUnlock()
	return a.Service.Execute(client, payload, readOnly)
}

// ownDecisions is how many instances replica id committed itself (the
// committed_total series of its pillars, or of MinBFT's loop); a state
// transfer does not count.
func ownDecisions(c *cluster.Cluster, id uint32) float64 {
	var sum float64
	for name, v := range c.Telemetry(id).Metrics().Snapshot() {
		if strings.HasPrefix(name, "hybster_") && strings.Contains(name, "_committed_total") {
			sum += v
		}
	}
	return sum
}

// TestALoneTimeoutKeepsTheReplicaInItsView blocks one follower's
// application for longer than two view-change timeouts while the group
// keeps ordering, then releases it. Its watchdog fires, alone: the rest
// of the group executes and has no reason to suspect the leader. One
// suspicion is not f+1, so the follower must not leave its view. Within
// two ticks of the release its standing must show the group's view with
// no view change pending, and it must then go on committing decisions
// of its own, not live on state transfers.
//
// The checkpoint interval is far above what the group orders during the
// test, so no checkpoint stabilizes while the application is blocked:
// a state transfer would queue behind the blocked application and hold
// the coordinator loop, and with it the watchdog, for the whole block.
func TestALoneTimeoutKeepsTheReplicaInItsView(t *testing.T) {
	for _, p := range []config.Protocol{config.HybsterS, config.HybsterX, config.PBFTcop, config.HybridPBFT, config.MinBFT} {
		t.Run(p.String(), func(t *testing.T) { loneTimeout(t, p) })
	}
}

func loneTimeout(t *testing.T, p config.Protocol) {
	cfg := config.Default(p)
	cfg.Pillars = min(cfg.Pillars, 2)
	cfg.BatchSize = 8
	cfg.CheckpointInterval = 1 << 16
	cfg.WindowSize = 1 << 17
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	tick := cfg.ViewChangeTimeout / 4

	lag := uint32(cfg.N - 1) // a follower in view 0, leading neither it nor view 1
	var gate sync.RWMutex
	c, err := cluster.New(cluster.Options{Config: cfg},
		func(cfg config.Config, id uint32, ep transport.Endpoint, env cluster.NodeEnv) (cluster.Replica, error) {
			var app statemachine.Application = counter.New()
			if id == lag {
				app = stallableApp{Service: counter.New(), gate: &gate}
			}
			return cluster.NewEngine(cfg, id, ep, env, app, enclave.CostModel{})
		})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	stopLoad := startLoad(t, c, standingLoadSize)
	defer stopLoad()

	await := func(what string, within time.Duration, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(within); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s within %v: %s", what, within, c.Standings())
			}
		}
	}
	inOneView := func() bool {
		v := c.Standing(0).View
		for id := uint32(0); int(id) < cfg.N; id++ {
			if s := c.Standing(id); s.View != v || s.Pending != 0 {
				return false
			}
		}
		return true
	}
	await("every replica executes in one view", 30*time.Second, func() bool {
		return inOneView() && c.Replica(lag).LastExecuted() >= 64
	})

	gate.Lock()
	time.Sleep(2*cfg.ViewChangeTimeout + tick)
	if s := c.Standing(lag); s.Stalled <= cfg.ViewChangeTimeout {
		gate.Unlock()
		t.Fatalf("r%d's application was blocked, yet its watchdog never expired: %s", lag, c.Standings())
	}
	gate.Unlock()

	await("the released replica stands in the group's view", 2*tick, inOneView)
	committed, own := c.Standing(lag).Committed, ownDecisions(c, lag)
	await("the released replica commits decisions of its own", 10*time.Second, func() bool {
		return c.Standing(lag).Committed > committed && ownDecisions(c, lag) > own
	})
}
