package pbft_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/statemachine"
)

func testConfig(proto config.Protocol, pillars int) config.Config {
	cfg := config.Default(proto)
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

func TestPBFTBasicOrdering(t *testing.T) {
	c := newCounterCluster(t, testConfig(config.PBFTcop, 1))
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 15; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d", i, v)
		}
	}
}

func TestPBFTParallelPillars(t *testing.T) {
	c := newCounterCluster(t, testConfig(config.PBFTcop, 3))
	invokeN(t, c, 6, 15)
}

func TestHybridPBFTOrdering(t *testing.T) {
	c := newCounterCluster(t, testConfig(config.HybridPBFT, 2))
	invokeN(t, c, 4, 15)
}

func TestPBFTCheckpointsAdvance(t *testing.T) {
	cfg := testConfig(config.PBFTcop, 2)
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 32
	c := newCounterCluster(t, cfg)
	invokeN(t, c, 4, 40)
}

func TestPBFTRotation(t *testing.T) {
	cfg := testConfig(config.PBFTcop, 2)
	cfg.RotateLeader = true
	c := newCounterCluster(t, cfg)
	invokeN(t, c, 4, 15)
}

func TestPBFTLeaderCrashViewChange(t *testing.T) {
	cfg := testConfig(config.PBFTcop, 1)
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

	c.Crash(0)

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

func TestHybridPBFTLeaderCrash(t *testing.T) {
	cfg := testConfig(config.HybridPBFT, 2)
	c := newCounterCluster(t, cfg)
	invokeN(t, c, 2, 5)

	c.Crash(0)

	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 8; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d after crash: %v", i, err)
		}
	}
}

func TestPBFTToleratesOneCrashedBackup(t *testing.T) {
	c := newCounterCluster(t, testConfig(config.PBFTcop, 1))
	invokeN(t, c, 2, 5)
	c.Crash(3) // a backup; 3 of 4 replicas remain — enough for 2f+1
	invokeN(t, c, 2, 10)
}

func TestPBFTIsolatedReplicaCatchesUp(t *testing.T) {
	cfg := testConfig(config.PBFTcop, 1)
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

	c.Isolate(3)
	for i := 0; i < 30; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d during isolation: %v", i, err)
		}
	}
	target := c.Replica(0).LastExecuted()

	c.HealAll()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Replica(3).LastExecuted() >= target {
			return
		}
		_, _ = cl.Invoke([]byte{1}, false)
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica 3 stuck at %d, want >= %d", c.Replica(3).LastExecuted(), target)
}
