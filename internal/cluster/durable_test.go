package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

func durableConfig(p config.Protocol) config.Config {
	return config.Config{
		Protocol:           p,
		N:                  config.ReplicasFor(p, 1),
		Pillars:            1,
		BatchSize:          8,
		CheckpointInterval: 8,
		WindowSize:         32,
		ViewChangeTimeout:  300 * time.Millisecond,
		KeySeed:            "durable-test",
	}
}

func newDurableCluster(t *testing.T, p config.Protocol) *Cluster {
	t.Helper()
	c, err := Boot(Options{
		Config:   durableConfig(p),
		DataRoot: t.TempDir(),
	}, func() statemachine.Application {
		return counter.New()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func commitN(t *testing.T, c *Cluster, n int) {
	t.Helper()
	cl, err := c.NewClient(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < n; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
}

// durableProtocols are the protocols whose replicas take a data dir,
// with the gauge each publishes its stable checkpoint under.
var durableProtocols = []struct {
	proto  config.Protocol
	stable string
}{
	{config.HybsterS, "hybster_core_stable_checkpoint"},
	{config.PBFTcop, "hybster_pbft_stable_checkpoint"},
	{config.HybridPBFT, "hybster_pbft_stable_checkpoint"},
}

// awaitStable waits until replica id recorded a stable checkpoint at
// order 8 or above. The client returns on f+1 replies, which the other
// replicas can give while id still trails; it catches up within
// milliseconds.
func awaitStable(t *testing.T, c *Cluster, id uint32, gauge string) {
	t.Helper()
	caughtUp := time.Now().Add(5 * time.Second)
	for c.MetricValue(id, gauge) < 8 {
		if time.Now().After(caughtUp) {
			t.Fatalf("replica %d executed %d, stable checkpoint %v before stopping; want >= 8",
				id, c.replicas[id].LastExecuted(), c.MetricValue(id, gauge))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColdRestartRecoversFromDisk pins the durable crash-recovery
// path: a replica with a data directory that crashes past a checkpoint
// comes back already holding its pre-crash execution state (recovered
// from the write-ahead log, and for Hybster the sealed counters), then
// catches the rest up via state transfer. Crash is a hard kill -9: no
// exact-value seal, no WAL flush, a torn log tail — so what recovery
// restores here is the genuinely durable state (the fsynced checkpoint
// plus whatever decisions the sync batch made stable), with counters
// resuming at the sealed horizon. A volatile restart would come back
// at order 0 — the assertion right after Restart distinguishes the two.
func TestColdRestartRecoversFromDisk(t *testing.T) {
	for _, tc := range durableProtocols {
		t.Run(tc.proto.String(), func(t *testing.T) {
			c := newDurableCluster(t, tc.proto)

			commitN(t, c, 12) // past the first checkpoint (interval 8)
			// What the crash must not take from replica 1 is its stable
			// checkpoint at 8, which it logs and syncs as it records it.
			awaitStable(t, c, 1, tc.stable)
			c.Crash(1)
			commitN(t, c, 12) // the group moves on without it

			if err := c.Restart(1); err != nil {
				t.Fatalf("cold restart: %v", err)
			}
			// Before any new traffic reaches it, the replica must already
			// hold at least the synced checkpoint — disk recovery, not
			// state transfer, put it there.
			if got := c.replicas[1].LastExecuted(); got < 8 {
				t.Fatalf("replica 1 at order %d right after cold restart; want >= 8 (recovered from disk)", got)
			}

			// And it still rejoins the live frontier.
			target := c.replicas[0].LastExecuted()
			deadline := time.Now().Add(15 * time.Second)
			for c.replicas[1].LastExecuted() < target {
				if time.Now().After(deadline) {
					t.Fatalf("replica 1 stuck at %d, cluster at %d",
						c.replicas[1].LastExecuted(), target)
				}
				commitN(t, c, 2)
			}
		})
	}
}

// TestGracefulShutdownResumesWarm pins the other stop mode: Shutdown
// (the SIGTERM analogue) flushes the WAL and, for Hybster, seals exact
// counter values, so the restarted replica resumes at its full
// pre-stop frontier — no tail loss, unlike the hard crash above.
func TestGracefulShutdownResumesWarm(t *testing.T) {
	for _, tc := range durableProtocols {
		t.Run(tc.proto.String(), func(t *testing.T) {
			c := newDurableCluster(t, tc.proto)

			commitN(t, c, 12)
			awaitStable(t, c, 1, tc.stable)
			pre := c.replicas[1].LastExecuted()
			c.Shutdown(1)
			if err := c.Restart(1); err != nil {
				t.Fatalf("warm restart: %v", err)
			}
			if got := c.replicas[1].LastExecuted(); got < max(pre, 8) {
				t.Fatalf("replica 1 at order %d after warm restart; want >= %d (nothing lost on graceful stop)", got, max(pre, 8))
			}
		})
	}
}

// TestAmnesiaZombieRefused pins the zombie defense: a replica whose
// data directory is wiped between crash and restart must be refused
// (its platform's monotonic seal register proves counter state
// existed), recorded as a zombie, and the remaining group must keep
// committing without it.
func TestAmnesiaZombieRefused(t *testing.T) {
	c := newDurableCluster(t, config.HybsterS)

	commitN(t, c, 12)
	c.Crash(1)

	err := c.RestartAmnesia(1)
	if !errors.Is(err, trinx.ErrAmnesia) {
		t.Fatalf("amnesia restart returned %v; want trinx.ErrAmnesia", err)
	}
	if !c.Zombie(1) {
		t.Fatal("refused replica not marked zombie")
	}
	if got := c.Zombies(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Zombies() = %v; want [1]", got)
	}
	if c.Replica(1) != nil {
		t.Fatal("zombie listed as live")
	}
	// A later plain restart must fail the same way: the register still
	// outlives the (now empty) disk.
	if err := c.Restart(1); !errors.Is(err, trinx.ErrAmnesia) {
		t.Fatalf("plain restart after amnesia returned %v; want trinx.ErrAmnesia", err)
	}

	// f=1, N=3: the group stays live with the zombie down (crashed
	// replicas are skipped by WaitExecuted).
	commitN(t, c, 8)
	if err := c.WaitExecuted(timeline.Order(16), 10*time.Second); err != nil {
		t.Fatalf("group lost liveness with zombie down: %v", err)
	}
}

// TestStaleSealRefused pins the rollback defense at cluster level: an
// operator restoring an old backup of the seal directory (a snapshot
// from an earlier crash) must not get the replica back — the platform
// register is ahead of the restored blobs, so boot fails with
// trinx.ErrStaleSeal, a distinct error from amnesia.
func TestStaleSealRefused(t *testing.T) {
	c := newDurableCluster(t, config.HybsterS)

	commitN(t, c, 12)
	c.Shutdown(1) // clean stop seals exact counters (seq S1)

	sealDir := filepath.Join(c.DataDir(1), "seal")
	backup := t.TempDir()
	if err := copyDir(sealDir, backup); err != nil {
		t.Fatalf("backup seal dir: %v", err)
	}

	if err := c.Restart(1); err != nil {
		t.Fatalf("first cold restart: %v", err)
	}
	commitN(t, c, 12)
	c.Shutdown(1) // seals again (seq S2 > S1)

	// "Restore the backup": roll the seal blobs back to S1.
	if err := os.RemoveAll(sealDir); err != nil {
		t.Fatal(err)
	}
	if err := copyDir(backup, sealDir); err != nil {
		t.Fatalf("restore backup: %v", err)
	}

	err := c.Restart(1)
	if !errors.Is(err, trinx.ErrStaleSeal) {
		t.Fatalf("restart on rolled-back seal returned %v; want trinx.ErrStaleSeal", err)
	}
	if errors.Is(err, trinx.ErrAmnesia) {
		t.Fatal("rollback misreported as amnesia")
	}
	if c.Replica(1) != nil {
		t.Fatal("refused replica listed as live")
	}

	// The rest of the group is unaffected.
	commitN(t, c, 8)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
