package minbft_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/minbft"
	"hybster/internal/statemachine"
)

func testConfig() config.Config {
	cfg := config.Default(config.MinBFT)
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

// TestMinBFTRefusesDataDir pins the one protocol that may not have a
// data dir: MinBFT's USIG seals nothing, so a replica booted from its
// log would rejoin under its old identity with its counters reset. The
// cluster hands every engine its data dir, and MinBFT's refuses it.
func TestMinBFTRefusesDataDir(t *testing.T) {
	c, err := cluster.Boot(cluster.Options{Config: testConfig(), DataRoot: t.TempDir()},
		func() statemachine.Application { return counter.New() })
	if err == nil {
		c.Stop()
		t.Fatal("a MinBFT group booted with data dirs")
	}
}

func TestMinBFTBasicOrdering(t *testing.T) {
	c := newCounterCluster(t, testConfig())
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 20; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d", i, v)
		}
	}
	// Every instance reaches execution through Host.Decide, which
	// records it as committed. The client returned on f+1 replies, so a
	// replica outside that quorum may still be on its way: judge each
	// once it executed all 20.
	for id := uint32(0); int(id) < c.Cfg.N; id++ {
		e := c.Replica(id).(*minbft.Engine)
		s := e.Standing()
		for deadline := time.Now().Add(5 * time.Second); s.Executed < 20; s = e.Standing() {
			if time.Now().After(deadline) {
				t.Fatalf("r%d did not execute the 20 operations: %v", id, s)
			}
			time.Sleep(time.Millisecond)
		}
		if s.Committed < s.Executed || s.Committed == 0 {
			t.Fatalf("r%d executed past what it committed: %v", id, s)
		}
	}
}

func TestMinBFTConcurrentClients(t *testing.T) {
	c := newCounterCluster(t, testConfig())
	const clients, per = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		cl, err := c.NewClient(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			for i := 0; i < per; i++ {
				if _, err := cl.Invoke([]byte{1}, false); err != nil {
					errs <- fmt.Errorf("op %d: %w", i, err)
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

	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Invoke(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint64(res); v != clients*per {
		t.Fatalf("counter = %d, want %d", v, clients*per)
	}
}

func TestMinBFTCheckpointGarbageCollection(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.WindowSize = 8
	c := newCounterCluster(t, cfg)
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Far more instances than the window holds: only possible if
	// checkpoints advance the window.
	for i := 0; i < 60; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestMinBFTToleratesCrashedFollower(t *testing.T) {
	c := newCounterCluster(t, testConfig())
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(2) // follower; leader + one follower remain = quorum
	for i := 0; i < 10; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d after follower crash: %v", i, err)
		}
	}
}

func TestMinBFTDuplicateRequestNotReExecuted(t *testing.T) {
	c := newCounterCluster(t, testConfig())
	cl, err := c.NewClient(30 * time.Millisecond) // force retransmits
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

func TestMinBFTLeaderCrashViewChange(t *testing.T) {
	// The §4.4 history-based view change in action: the leader crashes,
	// followers exchange SUSPECTs and history-carrying
	// VIEW-CHANGEs, and the next leader re-proposes every instance
	// disclosed by the histories.
	cfg := testConfig()
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

	for i := 6; i <= 12; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d after leader crash: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d — instance lost or duplicated", i, v)
		}
	}
}

func TestMinBFTHistoryGrowsUntilCheckpoint(t *testing.T) {
	// The §4.4 critique, measured: MinBFT's per-replica history grows
	// with every sent ordering message and only checkpoints truncate
	// it — whereas Hybster's view-change state is bounded by the
	// ordering window at all times (core.TestViewChangeSizeBounded...).
	cfg := testConfig()
	cfg.CheckpointInterval = 8
	cfg.WindowSize = 32
	c := newCounterCluster(t, cfg)
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	leader := c.Replica(0).(*minbft.Engine)
	// The history length is read off the leader's history_len gauge.
	hist := leader.Met.Gauge("history_len", "")
	// Below the first checkpoint the history grows monotonically.
	var grew bool
	prev := int(hist.Value())
	for i := 0; i < 6; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
		if l := int(hist.Value()); l > prev {
			grew = true
		}
		prev = int(hist.Value())
	}
	if !grew {
		t.Fatal("history never grew — sent messages are not being logged")
	}
	// Crossing checkpoints must truncate it.
	for i := 0; i < 30; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if int(hist.Value()) <= 2*8 { // within two checkpoint intervals
			return
		}
		_, _ = cl.Invoke([]byte{1}, false)
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("history length %d not truncated by checkpoints", int(hist.Value()))
}

func TestMinBFTSecondViewChange(t *testing.T) {
	// Two successive leader failures: views 0 → 1 → 2. Each round's
	// VIEW-CHANGE carries the previous one in its history.
	cfg := testConfig()
	c := newCounterCluster(t, cfg)
	cl, err := c.NewClient(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 3; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(0)
	for i := 4; i <= 6; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("op %d in view 1: %v", i, err)
		}
	}
	c.Crash(1) // leader of view 1; replica 2 alone is not a quorum...
	// n=3, f=1: two crashes exceed f, so no further progress is
	// REQUIRED — but also nothing must corrupt. Verify the survivor
	// still has consistent state.
	if got := c.Replica(2).LastExecuted(); got < 3 {
		t.Fatalf("survivor lost executed state: %d", got)
	}
}
