package core_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/core"
	"hybster/internal/statemachine"
)

func testConfig(pillars int) config.Config {
	p := config.HybsterS
	if pillars > 1 {
		p = config.HybsterX
	}
	cfg := config.Default(p)
	cfg.Pillars = pillars
	cfg.CheckpointInterval = 16
	cfg.WindowSize = 64
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	return cfg
}

func newCounterCluster(t *testing.T, cfg config.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func invokeN(t *testing.T, c *cluster.Cluster, clients, perClient int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		cl, err := c.NewClient(800 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				if _, err := cl.Invoke([]byte{1}, false); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", cl.ID(), i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSequentialBasicOrdering(t *testing.T) {
	c := newCounterCluster(t, testConfig(1))
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var last uint64
	for i := 1; i <= 20; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		v := binary.BigEndian.Uint64(res)
		if v != uint64(i) {
			t.Fatalf("op %d: counter = %d (last %d)", i, v, last)
		}
		last = v
	}
}

func TestParallelPillarsOrdering(t *testing.T) {
	c := newCounterCluster(t, testConfig(3))
	invokeN(t, c, 8, 20)
	if err := c.WaitExecuted(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestManyRequestsCrossCheckpoints(t *testing.T) {
	cfg := testConfig(2)
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 32
	c := newCounterCluster(t, cfg)
	// 4 clients × 50 ops each with batch size 16 crosses several
	// checkpoint intervals and exercises window advancement.
	invokeN(t, c, 4, 50)
}

func TestRotationSpreadsProposals(t *testing.T) {
	cfg := testConfig(2)
	cfg.RotateLeader = true
	c := newCounterCluster(t, cfg)
	invokeN(t, c, 6, 20)
}

func TestReplicasConvergeOnSameValue(t *testing.T) {
	c := newCounterCluster(t, testConfig(2))
	invokeN(t, c, 4, 25)

	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Invoke(nil, true) // read
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(res); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

func TestDuplicateRequestNotReExecuted(t *testing.T) {
	c := newCounterCluster(t, testConfig(1))
	// Short client timeout forces retransmissions; the reply cache
	// must keep the counter exact.
	cl, err := c.NewClient(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 10; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d — duplicate execution", i, v)
		}
	}
}

func TestLeaderCrashViewChange(t *testing.T) {
	cfg := testConfig(1)
	c := newCounterCluster(t, cfg)
	cl, err := c.NewClient(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 5; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}

	c.Crash(0) // leader of view 0

	// The remaining two replicas must elect replica 1 and continue.
	for i := 6; i <= 12; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d after leader crash: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d", i, v)
		}
	}
}

func TestLeaderCrashParallelPillars(t *testing.T) {
	cfg := testConfig(3)
	c := newCounterCluster(t, cfg)
	invokeN(t, c, 4, 10)

	c.Crash(0)

	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d after crash: %v", i, err)
		}
	}
}

func TestIsolatedReplicaCatchesUpViaStateTransfer(t *testing.T) {
	cfg := testConfig(1)
	cfg.CheckpointInterval = 4
	cfg.WindowSize = 8
	c := newCounterCluster(t, cfg)

	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}

	// Replica 2 disconnects; the others proceed far beyond its window.
	c.Isolate(2)
	for i := 0; i < 30; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d during isolation: %v", i, err)
		}
	}
	target := c.Replica(0).LastExecuted()

	c.HealAll()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Replica(2).LastExecuted() >= target {
			return
		}
		// Keep traffic flowing so retransmission and checkpoints give
		// the laggard something to catch up to.
		_, _ = cl.Invoke([]byte{1}, false)
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica 2 stuck at %d, want >= %d", c.Replica(2).LastExecuted(), target)
}

func TestViewChangePreservesExecutedRequests(t *testing.T) {
	// The scenario of Fig. 3: requests committed in view v must
	// survive into view v+1 even when a replica missed them.
	cfg := testConfig(1)
	c := newCounterCluster(t, cfg)

	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 5; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}

	// Partition replica 2 from the leader, order a few more requests
	// with just {0,1}, then crash the leader. Replica 2 must learn the
	// missed requests through the view change before new ones execute.
	c.Partition(0, 2)
	for i := 6; i <= 8; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d during partition: %v", i, err)
		}
	}
	c.Crash(0)
	c.HealAll()

	for i := 9; i <= 14; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d after crash: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d — committed request lost or duplicated", i, v)
		}
	}
}

func TestMultiRoundViewChangeEscalation(t *testing.T) {
	// Two-round view change (§5.2.3, view-change certificates): with
	// n = 5 (f = 2), crash both the view-0 leader and the designated
	// view-1 leader. The survivors first abort into view 1, find its
	// leader dead, and may escalate to view 2 only once they hold a
	// view-change certificate (a quorum of VIEW-CHANGEs) for view 1.
	cfg := testConfig(1)
	cfg.N = 5
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	c := newCounterCluster(t, cfg)

	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}

	c.Crash(1) // leader of the upcoming view 1
	c.Crash(0) // leader of view 0 — forces the view change

	deadline := time.Now().Add(20 * time.Second)
	ok := false
	for time.Now().Before(deadline) {
		if _, err := cl.Invoke([]byte{1}, false); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("no progress after two-round view change")
	}
	// The group must have passed through view 1 into view >= 2, led by
	// replica 2.
	e := c.Replica(2).(*core.Engine)
	if v := e.View(); v < 2 {
		t.Fatalf("view = %d, want >= 2", v)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d in view 2: %v", i, err)
		}
	}
}

func TestFiveReplicasTolerateTwoCrashes(t *testing.T) {
	// n = 2f+1 = 5 tolerates f = 2: crash two replicas (including the
	// leader) and keep ordering with the remaining quorum of 3.
	cfg := testConfig(2)
	cfg.N = 5
	c := newCounterCluster(t, cfg)
	invokeN(t, c, 3, 5)

	c.Crash(4) // a follower
	invokeN(t, c, 3, 5)

	c.Crash(0) // the leader → view change with 3 of 5

	cl, err := c.NewClient(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 8; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d after two crashes: %v", i, err)
		}
	}
}
