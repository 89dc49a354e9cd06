package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"hybster/internal/config"
)

// The long sweep is the cron-tier chaos job (`make chaos-long`): many
// seeds, a longer fault horizon, and elevated fault rates, alternating
// cold restarts and amnesia restarts. It is gated behind CHAOS_LONG so
// ordinary `go test ./...` runs stay fast and deterministic.
//
//	CHAOS_LONG=1         enable the sweep
//	CHAOS_LONG_SEEDS=n   seeds per restart mode (default 4)
//	CHAOS_LONG_HORIZON=d fault-active window per run (default 4s)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func envDur(name string, def time.Duration) time.Duration {
	if s := os.Getenv(name); s != "" {
		if v, err := time.ParseDuration(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// longPlan is durablePlan with the volume turned up: every fault
// category is several times more likely, the delay bound is wider, and
// corruption is switched on (absent from the pinned short schedule so
// its determinism stays byte-exact).
func longPlan(seed int64, horizon time.Duration, amnesia bool) *Plan {
	return &Plan{
		Seed:    seed,
		N:       3,
		Horizon: horizon,
		Links: []LinkFault{{
			From: Any, To: Any,
			Drop: 0.06, Duplicate: 0.03, Corrupt: 0.02, Reorder: 0.05,
			DelayProb: 0.10, DelayMax: 8 * time.Millisecond,
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

func TestChaosLongDurableSweep(t *testing.T) {
	if os.Getenv("CHAOS_LONG") == "" {
		t.Skip("long sweep disabled; run via `make chaos-long` (sets CHAOS_LONG=1)")
	}
	seeds := envInt("CHAOS_LONG_SEEDS", 4)
	horizon := envDur("CHAOS_LONG_HORIZON", 4*time.Second)

	for _, amnesia := range []bool{false, true} {
		for s := 0; s < seeds; s++ {
			seed := int64(1000 + s)
			name := fmt.Sprintf("cold/seed=%d", seed)
			if amnesia {
				name = fmt.Sprintf("amnesia/seed=%d", seed)
			}
			amnesia := amnesia
			t.Run(name, func(t *testing.T) {
				res, err := Run(Options{
					Protocol:      config.HybsterS,
					Plan:          longPlan(seed, horizon, amnesia),
					DataRoot:      t.TempDir(),
					SettleTimeout: 60 * time.Second,
					Logf:          t.Logf,
				})
				if err != nil {
					t.Fatalf("long chaos run failed (%v): %v", res.Plan, err)
				}
				if res.PostHealCommits < 5 {
					t.Fatalf("only %d post-heal commits", res.PostHealCommits)
				}
				if res.HistoryPoints == 0 {
					t.Fatal("safety check compared zero history points")
				}
				if amnesia {
					if len(res.Zombies) != 1 || res.Zombies[0] != 1 {
						t.Fatalf("Zombies = %v; want [1]", res.Zombies)
					}
				} else {
					if len(res.Zombies) != 0 {
						t.Fatalf("cold restart produced zombies: %v", res.Zombies)
					}
					if len(res.Restarted) != 1 || res.Restarted[0] != 1 {
						t.Fatalf("Restarted = %v; want [1]", res.Restarted)
					}
				}
				t.Logf("long chaos: order=%d points=%d heal-commits=%d faults=%+v",
					res.MaxOrder, res.HistoryPoints, res.PostHealCommits, res.Faults)
			})
		}
	}
}
