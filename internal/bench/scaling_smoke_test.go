package bench

import (
	"testing"
	"time"

	"hybster/internal/apps/echo"
	"hybster/internal/config"
	"hybster/internal/enclave"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
)

// TestFig5cScalingSmoke runs the Fig. 5c HybsterX point at 1 and 4
// pillars back to back — the CI smoke for the parallel ordering path.
// The window is far too short for a trustworthy throughput ratio, so
// that check only rejects a collapse: the 4-pillar configuration must
// reach a fraction of single-pillar throughput that any healthy
// sequencer clears by a wide margin. (A mis-gated batch hold once cost
// 6×; this floor exists to catch that class of bug, not to measure
// scaling — benchmark/run.sh and hybster-bench -figure 5c do the
// measuring.) The mechanism is checked on counts, which a short window
// under the race detector still gets right: with one in-flight budget
// per proposer, 4 pillars cut the same clients into batches nearly as
// large as 1 pillar does, where a budget per pillar cut them 2–3×
// smaller.
func TestFig5cScalingSmoke(t *testing.T) {
	const (
		clients  = 48
		warmup   = 50 * time.Millisecond
		duration = 300 * time.Millisecond
	)
	// pointAt returns the throughput and the group's requests per
	// executed instance at the given pillar count.
	pointAt := func(pillars int) (tput, perBatch float64) {
		t.Helper()
		cl, err := BuildCluster(config.HybsterX, pillars, 16, true, enclave.CostModel{},
			transport.LinkProfile{}, func() statemachine.Application { return echo.New(0) })
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		tput, lat, err := RunLoad(ClusterClients(cl), clients, warmup, duration, endless)
		cl.Stop()
		if err != nil {
			t.Fatal(err)
		}
		// With rotation on, clients left to finish their last request
		// waited 2.5 s or 5 s here for idle proposers' gap-fill no-ops;
		// RunLoad must cut them off instead, and must not record them.
		if teardown := time.Since(start) - warmup - duration; teardown > time.Second {
			t.Fatalf("pillars=%d: RunLoad teardown took %v after the window", pillars, teardown)
		}
		if lat.Max > time.Second {
			t.Fatalf("pillars=%d: latency summary holds a %v sample — a teardown straggler was recorded", pillars, lat.Max)
		}
		if tput <= 0 {
			t.Fatalf("pillars=%d: throughput = %f", pillars, tput)
		}
		return tput, reqsPerBatch(cl)
	}

	t1, b1 := pointAt(1)
	t4, b4 := pointAt(4)
	ratio := t4 / t1
	t.Logf("fig5c smoke: pillars=1 %.0f ops/s %.2f reqs/batch, pillars=4 %.0f ops/s %.2f reqs/batch, ratios %.2f and %.2f",
		t1, b1, t4, b4, ratio, b4/b1)
	if ratio < 0.25 {
		t.Fatalf("4-pillar throughput collapsed to %.2fx of 1-pillar (%.0f vs %.0f ops/s)", ratio, t4, t1)
	}
	if b4 < 0.6*b1 {
		t.Fatalf("4 pillars fragment batches: %.2f requests per batch against %.2f at 1 pillar (%.2fx)", b4, b1, b4/b1)
	}
}
