package cluster

import (
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
)

func restartConfig() config.Config {
	return config.Config{
		Protocol:           config.HybsterS,
		N:                  3,
		Pillars:            1,
		BatchSize:          8,
		CheckpointInterval: 8,
		WindowSize:         32,
		ViewChangeTimeout:  300 * time.Millisecond,
		KeySeed:            "restart-test",
	}
}

// TestCrashRestartRejoin is the regression test for the crash →
// restart → rejoin flow: Network.Endpoint replaces the dead
// registration (closing it), Restart heals the replica's links and
// rebuilds the engine on the original platform, and the restarted
// replica catches back up to the cluster via state transfer.
func TestCrashRestartRejoin(t *testing.T) {
	c, err := Boot(Options{Config: restartConfig()}, func() statemachine.Application {
		return counter.New()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := c.NewClient(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Invoke([]byte{1}, false); err != nil {
				t.Fatalf("invoke: %v", err)
			}
		}
	}

	commit(12) // past the first checkpoint (interval 8)
	c.Crash(1)
	if c.Replica(1) != nil {
		t.Fatal("crashed replica still listed")
	}
	commit(12) // cluster keeps committing with 2/3 replicas

	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if c.Replica(1) == nil {
		t.Fatal("restarted replica not listed")
	}
	if err := c.Restart(1); err == nil {
		t.Fatal("restarting a live replica must fail")
	}

	// The restarted replica must rejoin: new commits trigger fresh
	// checkpoints, and state transfer pulls it past the frontier it
	// missed while down.
	target := c.replicas[0].LastExecuted()
	deadline := time.Now().Add(15 * time.Second)
	for c.replicas[1].LastExecuted() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 stuck at %d, cluster at %d", c.replicas[1].LastExecuted(), target)
		}
		commit(2)
	}

	// And the full cluster converges on one frontier. Keep traffic
	// flowing while waiting: catch-up rides on checkpoints, which only
	// form when new batches commit.
	deadline = time.Now().Add(15 * time.Second)
	for {
		top := timeline.Order(0)
		for _, r := range c.replicas {
			if o := r.LastExecuted(); o > top {
				top = o
			}
		}
		err := c.WaitExecuted(top, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		commit(2)
	}
}
