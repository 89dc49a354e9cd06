package chaos

import (
	"testing"
	"time"

	"hybster/internal/audit"
	"hybster/internal/config"
)

// TestChaosAuditorDetectsFork runs a fault-free schedule with one
// replica's state machine deliberately forked: it orders and answers
// like everyone else, but every write it executes is perturbed, so
// its checkpoint digests silently diverge. The online auditor must
// end the run holding a digest-divergence finding that implicates
// the forked replica — detection through the real pipeline (engine →
// trace ring → sampler → auditor), not a synthetic event feed.
func TestChaosAuditorDetectsFork(t *testing.T) {
	plan := Plan{
		Seed:    1,
		N:       config.ReplicasFor(config.HybsterX, 1),
		Horizon: 600 * time.Millisecond,
	}
	res, err := Run(Options{
		Protocol:           config.HybsterX,
		Plan:               &plan,
		Fork:               &ForkSpec{Replica: 1},
		SettleTimeout:      2 * time.Second,
		MinPostHealCommits: 1,
		Logf:               t.Logf,
	})
	if err == nil {
		t.Fatal("forked run reported success")
	}
	if res == nil {
		t.Fatalf("no result alongside error: %v", err)
	}
	var hit *audit.Finding
	for i := range res.Audit.Findings {
		f := &res.Audit.Findings[i]
		if f.Kind != audit.DigestDivergence {
			continue
		}
		for _, r := range f.Replicas {
			if r == 1 {
				hit = f
			}
		}
	}
	if hit == nil {
		t.Fatalf("auditor missed the forked replica; findings: %+v (run error: %v)",
			res.Audit.Findings, err)
	}
	if len(hit.Digests) < 2 {
		t.Fatalf("divergence finding carries %d digests, want ≥2: %+v", len(hit.Digests), hit)
	}
	t.Logf("fork detected: %s", hit.Detail)
}

// TestChaosAuditCleanSoak is the auditor's precision bar: twenty
// seeded schedules across every protocol, each audited live, must
// produce zero findings — crashes, partitions, link noise, restarts
// and all. A false positive here means the auditor would cry wolf on
// a healthy production cluster. -short trims to one seed per
// protocol.
func TestChaosAuditCleanSoak(t *testing.T) {
	protocols := []config.Protocol{
		config.HybsterS, config.HybsterX, config.PBFTcop, config.HybridPBFT, config.MinBFT,
	}
	seeds := []int64{11, 23, 37, 53}
	if testing.Short() {
		seeds = seeds[:1]
	}
	iterations := 0
	for _, p := range protocols {
		for _, seed := range seeds {
			iterations++
			runCleanAudited(t, p, seed)
		}
	}
	t.Logf("audit clean over %d chaos iterations", iterations)
}

// runCleanAudited runs one audited schedule expecting a clean bill.
//
// Replicas run with durable state (DataRoot), except MinBFT's, which
// refuse a data dir. For Hybster that is the deployment the protocol's
// safety argument assumes: trusted
// counters must be monotonic across restarts (SGX-sealed in the
// paper, sealed counter state + WAL here). A volatile restart brings
// a replica back with its counters reset to zero — amnesia the
// trusted subsystem exists to prevent — and a seeded schedule
// (HybsterS, seed 23) demonstrates the resulting committed-instance
// loss: one replica misses a PREPARE and so validly discloses
// nothing past it in its view change, the amnesiac restartee's
// view-change discloses nothing at all, the two form a quorum, and
// the new leader re-proposes fresh batches over orders the old
// quorum already executed. The history check and the auditor's
// checkpoint-digest divergence both catch it; durable restarts make
// it impossible, which is the configuration a clean soak must run.
//
// Safety violations and audit findings fail immediately. A pure
// settle (liveness) failure gets one retry with a fresh cluster:
// post-heal catch-up is timing-sensitive under -race and can wedge
// on rare schedules for reasons that predate (and are orthogonal to)
// the auditor — the auditor in fact flags those runs as frontier
// stalls, which is it working, not a false positive.
func runCleanAudited(t *testing.T, p config.Protocol, seed int64) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		o := Options{
			Protocol: p,
			Seed:     seed,
			Horizon:  400 * time.Millisecond,
			Logf:     t.Logf,
		}
		if p != config.MinBFT {
			o.DataRoot = t.TempDir()
		}
		res, err := Run(o)
		if err != nil {
			diverged := res != nil && hasDivergence(res.Audit.Findings)
			if res != nil && res.HistoryPoints == 0 && !diverged && attempt == 0 {
				// Settle never completed, so the history check never
				// ran — a liveness wedge, not a safety or audit
				// failure. Retry once.
				t.Logf("%s seed %d: liveness wedge, retrying: %v", p, seed, err)
				continue
			}
			t.Fatalf("%s seed %d: %v", p, seed, err)
		}
		if n := len(res.Audit.Findings); n != 0 {
			t.Fatalf("%s seed %d: auditor raised %d finding(s) on a clean run: %+v",
				p, seed, n, res.Audit.Findings)
		}
		if res.Audit.Rounds == 0 {
			t.Fatalf("%s seed %d: auditor observed zero rounds", p, seed)
		}
		if len(res.Audit.Replicas) != config.ReplicasFor(p, 1) {
			t.Fatalf("%s seed %d: auditor observed replicas %v, want all %d",
				p, seed, res.Audit.Replicas, config.ReplicasFor(p, 1))
		}
		return
	}
}

// hasDivergence reports whether any finding is a safety violation.
func hasDivergence(findings []audit.Finding) bool {
	for _, f := range findings {
		if f.Kind == audit.DigestDivergence {
			return true
		}
	}
	return false
}
