package chaos

import (
	"testing"
	"time"

	"hybster/internal/config"
)

// durablePlan is the pinned schedule for the cold-restart chaos runs:
// mild link noise over every link, one crash of replica 1 with a
// restart inside the horizon. Deterministic — the same seed replays
// the same fault sequence.
func durablePlan(seed int64, horizon time.Duration, amnesia bool) *Plan {
	return &Plan{
		Seed:    seed,
		N:       3,
		Horizon: horizon,
		Links: []LinkFault{{
			From: Any, To: Any,
			Drop: 0.02, Duplicate: 0.01, Reorder: 0.02,
			DelayProb: 0.05, DelayMax: 3 * time.Millisecond,
		}},
		Crashes: []CrashEvent{{
			Replica:  1,
			At:       horizon / 4,
			Downtime: horizon / 4,
			Amnesia:  amnesia,
		}},
		Partitions: []PartitionEvent{{
			A: 0, B: 2,
			At:   horizon / 3,
			Heal: horizon / 2,
		}},
	}
}

// TestChaosColdRestartDurable pins the acceptance scenario for durable
// recovery: a Hybster cluster with persistent data directories runs a
// deterministic schedule whose crash victim is hard-killed (kill -9
// semantics: no exact-value seal, no WAL flush, torn log tail) and
// comes back via COLD restart — sealed-horizon counters + replay of
// the durable WAL prefix, not a blank slate and not a gracefully
// flushed one. The run must preserve the hash-chained history
// (safety) and resume committing with the recovered replica caught up
// (liveness).
func TestChaosColdRestartDurable(t *testing.T) {
	res, err := Run(Options{
		Protocol: config.HybsterS,
		Plan:     durablePlan(7, chaosHorizon(), false),
		DataRoot: t.TempDir(),
		// Recovery converges through view-change backoff; give it
		// headroom against CPU starvation when the whole suite runs in
		// parallel (settle returns early on success).
		SettleTimeout: 60 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("durable chaos run failed (%v): %v", res.Plan, err)
	}
	if res.PostHealCommits < 5 {
		t.Fatalf("only %d post-heal commits", res.PostHealCommits)
	}
	if len(res.Restarted) != 1 || res.Restarted[0] != 1 {
		t.Fatalf("Restarted = %v; want [1]", res.Restarted)
	}
	if len(res.Zombies) != 0 {
		t.Fatalf("cold restart produced zombies: %v", res.Zombies)
	}
	if res.HistoryPoints == 0 {
		t.Fatal("safety check compared zero history points")
	}
	t.Logf("durable chaos: order=%d points=%d heal-commits=%d",
		res.MaxOrder, res.HistoryPoints, res.PostHealCommits)
}

// TestChaosAmnesiaZombie pins the other half of the acceptance
// criteria: the same schedule but with the victim's disk wiped before
// its restart. The durable replica must be refused (zombie), the
// group of the two survivors must stay both safe and live, and the
// catch-up check must exempt the zombie rather than fail on it.
func TestChaosAmnesiaZombie(t *testing.T) {
	res, err := Run(Options{
		Protocol: config.HybsterS,
		Plan:     durablePlan(7, chaosHorizon(), true),
		DataRoot: t.TempDir(),
		// Two survivors carrying a permanent zombie is the slowest
		// convergence in the suite; same starvation headroom as above.
		SettleTimeout: 60 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("amnesia chaos run failed (%v): %v", res.Plan, err)
	}
	if len(res.Zombies) != 1 || res.Zombies[0] != 1 {
		t.Fatalf("Zombies = %v; want [1]", res.Zombies)
	}
	if res.PostHealCommits < 5 {
		t.Fatalf("only %d post-heal commits with zombie down", res.PostHealCommits)
	}
	if res.HistoryPoints == 0 {
		t.Fatal("safety check compared zero history points")
	}
	t.Logf("amnesia chaos: order=%d points=%d heal-commits=%d zombies=%v",
		res.MaxOrder, res.HistoryPoints, res.PostHealCommits, res.Zombies)
}
