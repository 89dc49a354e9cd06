package chaos

import (
	"reflect"
	"regexp"
	"testing"
	"time"

	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/transport"
)

// chaosHorizon returns the fault-active window; -short shrinks it for
// smoke runs.
func chaosHorizon() time.Duration {
	if testing.Short() {
		return 800 * time.Millisecond
	}
	return 2 * time.Second
}

// runChaos executes one seeded schedule and enforces the common
// expectations: no safety violation, post-heal liveness, and that the
// schedule actually exercised the interesting machinery (faults
// injected, a replica crash-restarted).
func runChaos(t *testing.T, p config.Protocol, seed int64) *Result {
	t.Helper()
	res, err := Run(Options{
		Protocol: p,
		Seed:     seed,
		Horizon:  chaosHorizon(),
		Logf:     t.Logf,
	})
	if err != nil {
		if res != nil {
			t.Fatalf("chaos run failed (%v): %v", res.Plan, err)
		}
		t.Fatalf("chaos run failed: %v", err)
	}
	if res.PostHealCommits < 5 {
		t.Fatalf("only %d post-heal commits", res.PostHealCommits)
	}
	if len(res.Restarted) == 0 {
		t.Fatal("schedule crash-restarted no replica")
	}
	if res.Faults.Dropped == 0 || res.Faults.Held == 0 {
		t.Fatalf("schedule injected too few faults: %+v", res.Faults)
	}
	if res.HistoryPoints == 0 {
		t.Fatal("safety check compared zero history points")
	}
	t.Logf("chaos %s: order=%d chaos-commits=%d heal-commits=%d faults=%+v points=%d",
		p, res.MaxOrder, res.ChaosCommits, res.PostHealCommits, res.Faults, res.HistoryPoints)
	return res
}

// Each protocol runs one seeded schedule combining link noise (loss,
// duplication, reorder, delay, corruption), a two-node partition
// window, and a replica crash-restart.

func TestChaosHybster(t *testing.T)  { runChaos(t, config.HybsterS, 1) }
func TestChaosHybsterX(t *testing.T) { runChaos(t, config.HybsterX, 2) }
func TestChaosPBFT(t *testing.T)     { runChaos(t, config.PBFTcop, 3) }
func TestChaosMinBFT(t *testing.T)   { runChaos(t, config.MinBFT, 4) }

// TestChaosTelemetryAssertsRetransmits runs a pure heavy-loss schedule
// and asserts on the telemetry snapshot in the result: the harness can
// now check internal protocol state, not just externally visible
// effects. With 20% of replica-to-replica messages dropped, progress
// requires the tick handler's retransmissions, so their counter must
// be nonzero — as must the commit and enclave-call counters that any
// committing Hybster cluster drives.
func TestChaosTelemetryAssertsRetransmits(t *testing.T) {
	plan := Plan{
		Seed:    99,
		N:       config.ReplicasFor(config.HybsterS, 1),
		Horizon: chaosHorizon(),
		Links:   []LinkFault{{From: Any, To: Any, Drop: 0.2}},
	}
	res, err := Run(Options{Protocol: config.HybsterS, Plan: &plan, Logf: t.Logf})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if got := res.Metric("hybster_core_committed_total"); got == 0 {
		t.Fatal("no instance committed according to telemetry")
	}
	if got := res.Metric("hybster_core_retransmits_total"); got == 0 {
		t.Fatal("20% message loss drove zero retransmissions — instrumentation or recovery path broken")
	}
	if got := res.Metric("hybster_trinx_ecalls_total"); got == 0 {
		t.Fatal("committing cluster recorded zero enclave calls")
	}
	t.Logf("telemetry: committed=%v retransmits=%v ecalls=%v",
		res.Metric("hybster_core_committed_total"),
		res.Metric("hybster_core_retransmits_total"),
		res.Metric("hybster_trinx_ecalls_total"))
}

// TestChaosCorruptionDrivesVerifyRejections runs a corruption-heavy
// plan and asserts on the inbound authenticator check: flipped bytes
// that land in a client authenticator produce frames that still parse
// but fail MAC verification, and those must be rejected by the Host's
// route (hybster_verify_rejected_total) before they
// reach a pillar mailbox — with the cluster still committing, since
// rejection must never cost liveness. Safety is checked by the
// harness's history comparison: had a corrupted request slipped past
// the check into ordering, replica states would diverge.
func TestChaosCorruptionDrivesVerifyRejections(t *testing.T) {
	plan := Plan{
		Seed:    101,
		N:       config.ReplicasFor(config.HybsterS, 1),
		Horizon: chaosHorizon(),
		Links:   []LinkFault{{From: Any, To: Any, Corrupt: 0.3}},
	}
	res, err := Run(Options{Protocol: config.HybsterS, Plan: &plan, Logf: t.Logf})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if got := res.Metric("hybster_core_committed_total"); got == 0 {
		t.Fatal("no instance committed under corruption")
	}
	if res.Faults.Corrupted == 0 {
		t.Fatal("plan injected zero parseable corruptions — rate too low to exercise the verify stage")
	}
	if got := res.Metric("hybster_verify_rejected_total"); got == 0 {
		t.Fatal("30% corruption drove zero verify-stage rejections — corrupted authenticators are not reaching (or not being caught by) the parallel verify pool")
	}
	t.Logf("telemetry: corrupted=%d verified=%v rejected=%v committed=%v",
		res.Faults.Corrupted,
		res.Metric("hybster_verify_verified_total"),
		res.Metric("hybster_verify_rejected_total"),
		res.Metric("hybster_core_committed_total"))
}

func TestChaosGenerateDeterministic(t *testing.T) {
	a := Generate(42, 4, 2*time.Second)
	b := Generate(42, 4, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	c := Generate(43, 4, 2*time.Second)
	if reflect.DeepEqual(a.Links, c.Links) && reflect.DeepEqual(a.Crashes, c.Crashes) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestChaosInjectorDeterministicReplay pins the determinism contract:
// replaying a schedule with the same seed yields the identical
// per-link fault sequence, message by message.
func TestChaosInjectorDeterministicReplay(t *testing.T) {
	plan := Generate(7, 4, 2*time.Second)
	first := decideAll(plan.NewInjector())
	second := decideAll(plan.NewInjector())
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same seed produced different fault sequences")
	}

	other := Generate(8, 4, 2*time.Second)
	if reflect.DeepEqual(first, decideAll(other.NewInjector())) {
		t.Fatal("different seed produced the identical fault sequence")
	}

	// Interleaving links differently must not change per-link decisions:
	// decision n on a link depends only on (seed, from, to, n).
	inj := plan.NewInjector()
	var interleaved []transport.Fault
	for seq := uint64(0); seq < 64; seq++ {
		for from := uint32(0); from < 4; from++ {
			for to := uint32(0); to < 4; to++ {
				if from == to {
					continue
				}
				interleaved = append(interleaved, inj.Decide(from, to, seq))
			}
		}
	}
	var byLink []transport.Fault
	for seq := uint64(0); seq < 64; seq++ {
		for from := uint32(0); from < 4; from++ {
			for to := uint32(0); to < 4; to++ {
				if from == to {
					continue
				}
				byLink = append(byLink, first[linkIndex(from, to)][seq])
			}
		}
	}
	if !reflect.DeepEqual(interleaved, byLink) {
		t.Fatal("fault decisions depend on cross-link interleaving")
	}
}

// decideAll drives 64 messages over every replica link, one link at a
// time, and returns the decision sequences.
func decideAll(inj transport.Injector) map[int][]transport.Fault {
	out := make(map[int][]transport.Fault)
	for from := uint32(0); from < 4; from++ {
		for to := uint32(0); to < 4; to++ {
			if from == to {
				continue
			}
			seqs := make([]transport.Fault, 64)
			for seq := uint64(0); seq < 64; seq++ {
				seqs[seq] = inj.Decide(from, to, seq)
			}
			out[linkIndex(from, to)] = seqs
		}
	}
	return out
}

func linkIndex(from, to uint32) int { return int(from)*4 + int(to) }

// TestChaosClientLinksUntouched pins that client traffic (IDs at or
// above the replica count) bypasses fault injection entirely.
func TestChaosClientLinksUntouched(t *testing.T) {
	plan := Generate(5, 4, time.Second)
	inj := plan.NewInjector()
	for seq := uint64(0); seq < 32; seq++ {
		if f := inj.Decide(4, 0, seq); f != (transport.Fault{}) {
			t.Fatalf("client link faulted: %+v", f)
		}
		if f := inj.Decide(0, 99, seq); f != (transport.Fault{}) {
			t.Fatalf("reply link faulted: %+v", f)
		}
	}
}

// TestSettleSaysWhereEachReplicaStands drives settle against a group
// whose quorum is crashed: no probe can commit, and the liveness error
// must say, replica by replica, what the survivor sees and who is down.
func TestSettleSaysWhereEachReplicaStands(t *testing.T) {
	r := &run{
		opts:        Options{SettleTimeout: 1500 * time.Millisecond, MinPostHealCommits: 1}.withDefaults(),
		cfg:         configFor(config.HybsterX),
		reg:         newHistoryRegistry(),
		incarnation: make(map[uint32]int),
	}
	cl, err := cluster.New(cluster.Options{Config: r.cfg}, r.factory)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	r.cl = cl
	cl.Crash(1)
	cl.Crash(2)

	err = r.settle(0)
	if err == nil {
		t.Fatal("settle succeeded with a crashed quorum")
	}
	// The survivor holds the probe's request, so its standing names the
	// stall, and it suspects its view alone: one suspicion is not f+1,
	// so it does not leave the view.
	want := regexp.MustCompile(`liveness violated: only 0/1 commits .*; r0 view=0 exec=0 committed=0 queue=0 stable=0 statereq=never stalled=[1-9][0-9.]*m?s desired=0 sus\[0\]=\{r0\}, r1 down, r2 down$`)
	if !want.MatchString(err.Error()) {
		t.Fatalf("settle error %q does not match %s", err, want)
	}
}
