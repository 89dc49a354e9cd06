// Package chaos generates seeded fault schedules and runs protocol
// clusters under them, checking the two invariants that define the
// paper's guarantees: correct replicas never execute divergent
// histories (safety), and the cluster resumes committing after the
// faults heal (liveness).
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"hybster/internal/transport"
)

// Any matches every node ID in a LinkFault rule.
const Any = ^uint32(0)

// LinkFault is one per-link fault rule. Probabilities are in [0,1] and
// evaluated independently for every message crossing a matching link.
// The first matching rule in Plan.Links wins.
type LinkFault struct {
	From uint32 // sender ID, or Any
	To   uint32 // receiver ID, or Any

	Drop      float64       // probability a message is discarded
	Duplicate float64       // probability a message is delivered twice
	Corrupt   float64       // probability one byte is flipped
	Reorder   float64       // probability a message is overtaken by its successor
	DelayProb float64       // probability a message is delayed
	DelayMax  time.Duration // upper bound of the injected delay
}

func (r LinkFault) matches(from, to uint32) bool {
	return (r.From == Any || r.From == from) && (r.To == Any || r.To == to)
}

// CrashEvent schedules a fail-stop crash of one replica followed by a
// restart (a Downtime of 0 or beyond the horizon means no restart
// before the heal phase). When the harness runs with a data root the
// restart is a cold restart — recovery from sealed counters and the
// write-ahead log. Amnesia additionally wipes the replica's data
// directory before the restart: a replica with sealed counters
// (Hybster) must then be refused (zombie) and stays down for the rest
// of the run; PBFT, which seals nothing, restarts volatile. Without a
// data root Amnesia degrades to a plain restart.
type CrashEvent struct {
	Replica  uint32
	At       time.Duration // offset from schedule start
	Downtime time.Duration // how long the replica stays down
	Amnesia  bool          // wipe the data dir before restarting
}

// PartitionEvent schedules a two-node partition window.
type PartitionEvent struct {
	A, B uint32
	At   time.Duration // offset from schedule start
	Heal time.Duration // offset from schedule start; must be > At
}

// Plan is a declarative, fully reproducible fault schedule. Link
// faults are probabilistic but derived from Seed alone: the fate of
// the n-th message on link from→to is a pure function of
// (Seed, from, to, n), independent of timing, goroutine interleaving,
// and wall clock. Temporal shape (outages) comes from the crash and
// partition events, which the harness applies at cluster level.
type Plan struct {
	Seed    int64
	N       int           // replica count; links touching IDs ≥ N (clients) are left intact
	Horizon time.Duration // how long faults stay active before everything heals

	Links      []LinkFault
	Crashes    []CrashEvent
	Partitions []PartitionEvent
}

// String renders the plan compactly for failure messages.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan{seed=%d n=%d horizon=%v", p.Seed, p.N, p.Horizon)
	for _, l := range p.Links {
		from, to := "any", "any"
		if l.From != Any {
			from = fmt.Sprint(l.From)
		}
		if l.To != Any {
			to = fmt.Sprint(l.To)
		}
		fmt.Fprintf(&b, " link(%s→%s drop=%.3f dup=%.3f corrupt=%.3f reorder=%.3f delay=%.3f/%v)",
			from, to, l.Drop, l.Duplicate, l.Corrupt, l.Reorder, l.DelayProb, l.DelayMax)
	}
	for _, c := range p.Crashes {
		amn := ""
		if c.Amnesia {
			amn = " amnesia"
		}
		fmt.Fprintf(&b, " crash(r%d at=%v down=%v%s)", c.Replica, c.At, c.Downtime, amn)
	}
	for _, pt := range p.Partitions {
		fmt.Fprintf(&b, " partition(%d↔%d at=%v heal=%v)", pt.A, pt.B, pt.At, pt.Heal)
	}
	b.WriteString("}")
	return b.String()
}

// NewInjector builds the deterministic transport.Injector realizing
// the plan's link-fault rules. Each (from, to) link owns a rand.Rand
// seeded from (Seed, from, to); exactly seven draws are consumed per
// message regardless of which faults fire, so the decision for
// message n never depends on the fate of messages 0..n-1 beyond their
// count. The FaultyEndpoint decorator calls Decide with strictly
// ascending seq per link, which closes the determinism argument:
// same seed ⇒ same fault sequence.
func (p Plan) NewInjector() transport.Injector {
	return &planInjector{plan: p, rngs: make(map[[2]uint32]*rand.Rand)}
}

type planInjector struct {
	plan Plan

	mu   sync.Mutex
	rngs map[[2]uint32]*rand.Rand
}

// Decide implements transport.Injector.
func (pi *planInjector) Decide(from, to uint32, seq uint64) transport.Fault {
	// Client links (IDs at or above the replica count) are left clean:
	// the interesting faults are between replicas, and unfaulted client
	// traffic keeps load flowing so safety violations would surface.
	if int64(from) >= int64(pi.plan.N) || int64(to) >= int64(pi.plan.N) {
		return transport.Fault{}
	}
	var rule *LinkFault
	for i := range pi.plan.Links {
		if pi.plan.Links[i].matches(from, to) {
			rule = &pi.plan.Links[i]
			break
		}
	}
	if rule == nil {
		return transport.Fault{}
	}

	pi.mu.Lock()
	defer pi.mu.Unlock()
	key := [2]uint32{from, to}
	rng, ok := pi.rngs[key]
	if !ok {
		rng = rand.New(rand.NewSource(pi.plan.Seed ^ int64(from)<<20 ^ int64(to)<<40 ^ 0x5eed))
		pi.rngs[key] = rng
	}
	// Fixed draw count per message — the determinism contract.
	dropF := rng.Float64()
	dupF := rng.Float64()
	corruptF := rng.Float64()
	reorderF := rng.Float64()
	delayF := rng.Float64()
	pos := rng.Uint32()
	xor := byte(rng.Uint32() | 1) // never zero

	var f transport.Fault
	if dropF < rule.Drop {
		f.Drop = true
		return f
	}
	f.Duplicate = dupF < rule.Duplicate
	if corruptF < rule.Corrupt {
		f.Corrupt = true
		f.CorruptPos = pos
		f.CorruptXOR = xor
	}
	f.Hold = reorderF < rule.Reorder
	if delayF < rule.DelayProb && rule.DelayMax > 0 {
		f.Delay = time.Duration(delayF / rule.DelayProb * float64(rule.DelayMax))
	}
	return f
}

// Generate derives a randomized-but-reproducible plan from seed for an
// n-replica cluster: moderate all-link noise (loss, duplication,
// reordering, small delays, rare corruption), one two-node partition
// window, and one crash-restart of a non-primary replica. The same
// seed always yields the same plan.
func Generate(seed int64, n int, horizon time.Duration) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed, N: n, Horizon: horizon}

	p.Links = []LinkFault{{
		From:      Any,
		To:        Any,
		Drop:      0.01 + rng.Float64()*0.03,  // 1–4% loss
		Duplicate: 0.005 + rng.Float64()*0.01, // 0.5–1.5% duplication
		Corrupt:   0.002 + rng.Float64()*0.004,
		Reorder:   0.01 + rng.Float64()*0.02,
		DelayProb: 0.05 + rng.Float64()*0.05,
		DelayMax:  time.Duration(2+rng.Intn(6)) * time.Millisecond,
	}}

	// Crash a non-view-0-primary replica so the run exercises
	// catch-up rather than (only) view change, then bring it back
	// with enough healthy time left to rejoin.
	victim := uint32(1 + rng.Intn(n-1))
	at := time.Duration(float64(horizon) * (0.15 + rng.Float64()*0.15))
	down := time.Duration(float64(horizon) * (0.2 + rng.Float64()*0.15))
	p.Crashes = []CrashEvent{{Replica: victim, At: at, Downtime: down}}

	// Partition two other replicas for a window that overlaps the
	// crash, compounding the faults.
	a := uint32(rng.Intn(n))
	b := uint32(rng.Intn(n))
	for b == a {
		b = uint32(rng.Intn(n))
	}
	pAt := time.Duration(float64(horizon) * (0.3 + rng.Float64()*0.1))
	pHeal := pAt + time.Duration(float64(horizon)*(0.15+rng.Float64()*0.15))
	p.Partitions = []PartitionEvent{{A: a, B: b, At: pAt, Heal: pHeal}}

	// One run in four schedules amnesia for the crash victim: on a
	// durable harness the wiped replica must come back as a refused
	// zombie, exercising the rollback defense; the group (sized for
	// f=1) stays live without it. The draw is appended last so plans
	// for pre-existing seeds keep their link/crash/partition shape.
	p.Crashes[0].Amnesia = rng.Float64() < 0.25
	return p
}
