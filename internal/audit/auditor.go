package audit

import (
	"fmt"
	"sort"
	"sync"

	"hybster/internal/engine"
	"hybster/internal/telemetry"
)

// FindingKind classifies an audit finding.
type FindingKind string

const (
	// DigestDivergence: two replicas recorded different digests for
	// the same protocol coordinate — a committed or delivered batch,
	// an accepted proposal within one view, or a checkpoint of the
	// same order. This is a safety violation (the PR 8 bug class):
	// correct protocols never let it happen, whatever the faults.
	DigestDivergence FindingKind = "digest-divergence"
	// FrontierStall: a replica's execution frontier sat still across
	// consecutive audit rounds while a quorum of its peers advanced
	// past it by more than the configured gap.
	FrontierStall FindingKind = "frontier-stall"
	// ViewChangeStorm: a replica churned through views without its
	// execution frontier moving — view changes that never restore
	// progress.
	ViewChangeStorm FindingKind = "view-change-storm"
	// DeafStream: a MinBFT replica reported a per-sender UI stream
	// whose expected-counter gap exceeds the holdback horizon, so the
	// stream can never drain without a view change (the PR 8 deaf
	// replica class), persisting across rounds.
	DeafStream FindingKind = "deaf-stream"
	// CheckpointLag: a replica's stable checkpoint fell further behind
	// its execution frontier than the configured bound and stayed
	// there — garbage collection has effectively stopped.
	CheckpointLag FindingKind = "checkpoint-lag"
)

// Finding is one detected invariant violation.
type Finding struct {
	Kind FindingKind `json:"kind"`
	// Replicas lists the replicas implicated (both sides of a
	// divergence; the single victim of a liveness finding).
	Replicas []uint32 `json:"replicas,omitempty"`
	View     uint64   `json:"view,omitempty"`
	Slot     uint64   `json:"slot,omitempty"`
	Pillar   uint32   `json:"pillar,omitempty"`
	// Digests lists the conflicting digest prefixes of a divergence.
	Digests []string `json:"digests,omitempty"`
	// Standing is where a liveness finding's victim stood; Detail ends with it.
	Standing *engine.Standing `json:"standing,omitempty"`
	// Detail is the human-readable account.
	Detail string `json:"detail"`
	// Round is the audit round (1-based) that raised the finding.
	Round int `json:"round"`
}

// Options tune the auditor's detection thresholds. Zero values select
// the documented defaults; the liveness thresholds deliberately err
// towards silence, because a false "safety is fine but replica 2 is
// stalled" claim from the auditor is worse than a late true one.
type Options struct {
	// FrontierStallGap is how many orders behind the quorum frontier a
	// flat replica must be before it counts as stalling (default 16).
	FrontierStallGap uint64
	// StallRounds is how many consecutive rounds the stall must
	// persist before a finding is raised (default 3).
	StallRounds int
	// StormViews is the view advance within StormRounds rounds that,
	// with zero execution progress, constitutes a storm (default 4).
	StormViews uint64
	// StormRounds is the storm observation window (default 6).
	StormRounds int
	// DeafRounds is how many consecutive rounds a deaf UI stream must
	// persist before a finding (default 3).
	DeafRounds int
	// CheckpointLagMax is the largest tolerated gap between a
	// replica's execution frontier and its stable checkpoint
	// (default 256 orders).
	CheckpointLagMax uint64
	// LagRounds is how many consecutive rounds the checkpoint lag
	// must persist (default 3).
	LagRounds int
}

const (
	// retainSlots bounds digest-divergence memory: coordinates more
	// than this many slots behind the highest slot seen are pruned.
	retainSlots = 8192
	// maxFindings caps the findings list; excess findings are counted
	// but dropped.
	maxFindings = 128
)

func (o *Options) fillDefaults() {
	if o.FrontierStallGap == 0 {
		o.FrontierStallGap = 16
	}
	if o.StallRounds == 0 {
		o.StallRounds = 3
	}
	if o.StormViews == 0 {
		o.StormViews = 4
	}
	if o.StormRounds == 0 {
		o.StormRounds = 6
	}
	if o.DeafRounds == 0 {
		o.DeafRounds = 3
	}
	if o.CheckpointLagMax == 0 {
		o.CheckpointLagMax = 256
	}
	if o.LagRounds == 0 {
		o.LagRounds = 3
	}
}

// digestKey is one cross-replica digest-agreement coordinate.
type digestKey struct {
	cat    string // "proposal" | "commit" | "deliver" | "checkpoint"
	view   uint64 // 0 for view-independent categories
	slot   uint64
	pillar uint32
}

// viewExec is one storm-window observation.
type viewExec struct {
	view uint64
	exec uint64
}

// track is the auditor's per-replica liveness state.
type track struct {
	haveLast    bool
	lastExec    uint64
	stallRounds int
	deafRounds  int
	lagRounds   int
	window      []viewExec
}

func (t *track) reset() {
	t.haveLast = false
	t.stallRounds, t.deafRounds, t.lagRounds = 0, 0, 0
	t.window = t.window[:0]
}

// Auditor consumes rounds of per-replica Samples and raises Findings
// when protocol invariants break. Safety checks (digest divergence)
// run on every round; liveness checks (stalls, storms, deaf streams,
// checkpoint lag) run only while enabled via EnableLiveness, so a
// harness can suppress them during deliberately induced outages and
// arm them once the cluster is healed.
type Auditor struct {
	opts Options

	mu        sync.Mutex
	liveness  bool
	round     int
	seenSeq   map[uint32]uint64 // next unprocessed trace Seq per replica
	digests   map[digestKey]map[string][]uint32
	maxSlot   uint64
	tracks    map[uint32]*track
	findings  []Finding
	dedup     map[string]bool
	truncated int
}

// New creates an auditor with zero-valued options defaulted.
func New(opts Options) *Auditor {
	opts.fillDefaults()
	return &Auditor{
		opts:    opts,
		seenSeq: make(map[uint32]uint64),
		digests: make(map[digestKey]map[string][]uint32),
		tracks:  make(map[uint32]*track),
		dedup:   make(map[string]bool),
	}
}

// EnableLiveness arms (or disarms) the liveness checks. Arming resets
// every per-replica streak, so observations made during a disabled
// (faulty) phase never count towards a finding.
func (a *Auditor) EnableLiveness(on bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.liveness = on
	for _, t := range a.tracks {
		t.reset()
	}
}

// Observe ingests one audit round: one Sample per reachable replica.
func (a *Auditor) Observe(samples []Sample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.round++
	for i := range samples {
		a.observeEvents(&samples[i])
	}
	a.pruneDigests()
	if a.liveness {
		a.observeLiveness(samples)
	}
}

// ObserveDumps runs the safety checks over dumped trace files — the
// offline path hybster-audit uses. Dump headers override per-event
// replica tags, exactly as in Merge.
func (a *Auditor) ObserveDumps(dumps ...*telemetry.TraceDump) {
	samples := make([]Sample, 0, len(dumps))
	for _, d := range dumps {
		if d == nil {
			continue
		}
		events := make([]telemetry.Event, len(d.Events))
		copy(events, d.Events)
		for i := range events {
			events[i].Replica = d.Replica
			if d.Protocol != "" {
				events[i].Protocol = d.Protocol
			}
		}
		samples = append(samples, Sample{Replica: d.Replica, Events: events})
	}
	a.Observe(samples)
}

// observeEvents feeds a replica's fresh trace events into the digest
// agreement maps. Each replica's stream is consumed once: events at
// or below the per-replica high-water Seq were already processed. A
// Seq regression (the tracer was rebuilt, e.g. an amnesia restart)
// resets the high-water mark; reprocessing is harmless because the
// digest maps are sets and findings deduplicate.
func (a *Auditor) observeEvents(s *Sample) {
	from, ok := a.seenSeq[s.Replica]
	if len(s.Events) > 0 && ok && s.Events[len(s.Events)-1].Seq+1 < from {
		from = 0
	}
	for i := range s.Events {
		e := &s.Events[i]
		if e.Seq < from {
			continue
		}
		a.seenSeq[s.Replica] = e.Seq + 1
		if e.Digest == "" {
			continue
		}
		var k digestKey
		switch e.Kind {
		case telemetry.EvPropose, telemetry.EvPrepare:
			// Within one view a slot has exactly one proposal; two
			// digests here mean leader equivocation.
			k = digestKey{cat: "proposal", view: e.View, slot: e.Slot, pillar: e.Pillar}
		case telemetry.EvCommit:
			k = digestKey{cat: "commit", view: e.View, slot: e.Slot, pillar: e.Pillar}
		case telemetry.EvDeliver:
			// Delivery is forever: the digest must agree across views.
			k = digestKey{cat: "deliver", slot: e.Slot, pillar: e.Pillar}
		case telemetry.EvCheckpoint, telemetry.EvCkptStable:
			// The checkpoint digest covers the state at an order —
			// identical on every correct replica regardless of view.
			k = digestKey{cat: "checkpoint", slot: e.Slot}
		default:
			continue
		}
		if e.Slot > a.maxSlot {
			a.maxSlot = e.Slot
		}
		seen := a.digests[k]
		if seen == nil {
			seen = make(map[string][]uint32)
			a.digests[k] = seen
		}
		if !containsReplica(seen[e.Digest], s.Replica) {
			seen[e.Digest] = append(seen[e.Digest], s.Replica)
		}
		if len(seen) > 1 {
			a.raiseDivergence(k, seen)
		}
	}
}

// raiseDivergence records a digest-divergence finding for coordinate
// k (deduplicated, so a persisting divergence raises once).
func (a *Auditor) raiseDivergence(k digestKey, seen map[string][]uint32) {
	dedup := fmt.Sprintf("diverge/%s/v%d/s%d/p%d", k.cat, k.view, k.slot, k.pillar)
	digests := make([]string, 0, len(seen))
	for d := range seen {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	replicaSet := make(map[uint32]bool)
	for _, rs := range seen {
		for _, r := range rs {
			replicaSet[r] = true
		}
	}
	replicas := make([]uint32, 0, len(replicaSet))
	for r := range replicaSet {
		replicas = append(replicas, r)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	a.raise(dedup, Finding{
		Kind: DigestDivergence, Replicas: replicas,
		View: k.view, Slot: k.slot, Pillar: k.pillar, Digests: digests,
		Detail: fmt.Sprintf("%s digest divergence at slot %d (view %d, pillar %d): %d distinct digests %v across replicas %v",
			k.cat, k.slot, k.view, k.pillar, len(digests), digests, replicas),
	})
}

// pruneDigests bounds divergence-state memory by forgetting
// coordinates far behind the highest slot seen.
func (a *Auditor) pruneDigests() {
	if uint64(len(a.digests)) <= 4*retainSlots || a.maxSlot <= retainSlots {
		return
	}
	floor := a.maxSlot - retainSlots
	for k := range a.digests {
		if k.slot < floor {
			delete(a.digests, k)
		}
	}
}

// observeLiveness runs the stall/storm/deaf/lag checks for one round.
func (a *Auditor) observeLiveness(samples []Sample) {
	// Frontier census first: who is eligible, who advanced, how far
	// ahead the quorum is.
	type obs struct {
		s        *Sample
		t        *track
		exec     uint64
		view     uint64
		advanced bool
	}
	var eligible []obs
	var maxExec uint64
	advanced := 0
	for i := range samples {
		s := &samples[i]
		t := a.tracks[s.Replica]
		if t == nil {
			t = &track{}
			a.tracks[s.Replica] = t
		}
		if s.Standing == nil {
			// Down/zombied/unknown replicas restart their streaks when
			// they come back; counting absence as a stall would turn
			// every deliberate crash into a finding.
			t.reset()
			continue
		}
		exec := uint64(s.Standing.Executed)
		o := obs{s: s, t: t, exec: exec, view: uint64(s.Standing.View)}
		if t.haveLast && exec > t.lastExec {
			o.advanced = true
			advanced++
		}
		if exec > maxExec {
			maxExec = exec
		}
		eligible = append(eligible, o)
	}
	quorum := len(samples)/2 + 1

	for _, o := range eligible {
		t := o.t
		// Frontier stall: flat while a quorum moved past the gap.
		stalled := t.haveLast && !o.advanced && advanced >= quorum &&
			maxExec > o.exec && maxExec-o.exec > a.opts.FrontierStallGap
		if stalled {
			t.stallRounds++
		} else {
			t.stallRounds = 0
		}
		if t.stallRounds >= a.opts.StallRounds {
			a.raiseLiveness(fmt.Sprintf("stall/r%d", o.s.Replica), o.s, Finding{
				Kind: FrontierStall,
				Detail: fmt.Sprintf("replica %d frontier stalled at order %d for %d rounds while a quorum advanced to %d (gap %d > %d)",
					o.s.Replica, o.exec, t.stallRounds, maxExec, maxExec-o.exec, a.opts.FrontierStallGap),
			})
		}

		// View-change storm: views churn, frontier does not.
		t.window = append(t.window, viewExec{view: o.view, exec: o.exec})
		if len(t.window) > a.opts.StormRounds {
			t.window = t.window[1:]
		}
		if len(t.window) == a.opts.StormRounds {
			oldest := t.window[0]
			if o.view >= oldest.view+a.opts.StormViews && o.exec == oldest.exec {
				a.raiseLiveness(fmt.Sprintf("storm/r%d/v%d", o.s.Replica, o.view), o.s, Finding{
					Kind: ViewChangeStorm, View: o.view,
					Detail: fmt.Sprintf("replica %d advanced %d views (to %d) over %d rounds with no execution progress (order %d)",
						o.s.Replica, o.view-oldest.view, o.view, a.opts.StormRounds, o.exec),
				})
			}
		}

		// Deaf per-sender UI streams (MinBFT only).
		if o.s.Standing.Deaf > 0 {
			t.deafRounds++
		} else {
			t.deafRounds = 0
		}
		if t.deafRounds >= a.opts.DeafRounds {
			a.raiseLiveness(fmt.Sprintf("deaf/r%d", o.s.Replica), o.s, Finding{
				Kind: DeafStream,
				Detail: fmt.Sprintf("replica %d has %d deaf sender stream(s): expected-counter gap beyond the holdback horizon for %d rounds; only a view change can re-anchor them",
					o.s.Replica, o.s.Standing.Deaf, t.deafRounds),
			})
		}

		// Checkpoint stability lag.
		stable := uint64(o.s.Standing.Stable)
		if o.exec > stable && o.exec-stable > a.opts.CheckpointLagMax {
			t.lagRounds++
		} else {
			t.lagRounds = 0
		}
		if t.lagRounds >= a.opts.LagRounds {
			a.raiseLiveness(fmt.Sprintf("lag/r%d", o.s.Replica), o.s, Finding{
				Kind: CheckpointLag,
				Detail: fmt.Sprintf("replica %d stable checkpoint %d trails execution %d by %d orders (> %d) for %d rounds",
					o.s.Replica, stable, o.exec, o.exec-stable, a.opts.CheckpointLagMax, t.lagRounds),
			})
		}

		t.haveLast, t.lastExec = true, o.exec
	}
}

// raiseLiveness raises f against the replica of sample s.
func (a *Auditor) raiseLiveness(dedup string, s *Sample, f Finding) {
	f.Replicas, f.Standing = []uint32{s.Replica}, s.Standing
	f.Detail += "; standing: " + s.Standing.String()
	a.raise(dedup, f)
}

// raise appends a finding unless its dedup key already fired or the
// cap is reached.
func (a *Auditor) raise(dedup string, f Finding) {
	if a.dedup[dedup] {
		return
	}
	a.dedup[dedup] = true
	if len(a.findings) >= maxFindings {
		a.truncated++
		return
	}
	f.Round = a.round
	a.findings = append(a.findings, f)
}

// Report is the auditor's current verdict.
type Report struct {
	// Rounds is how many Observe rounds have been ingested.
	Rounds int `json:"rounds"`
	// Replicas lists every replica ever observed.
	Replicas []uint32 `json:"replicas"`
	// LivenessChecks reports whether liveness checks are armed.
	LivenessChecks bool `json:"liveness_checks"`
	// Findings are the violations detected so far, oldest first.
	Findings []Finding `json:"findings"`
	// Truncated counts findings dropped past the cap.
	Truncated int `json:"truncated_findings,omitempty"`
}

// Report snapshots the auditor's state.
func (a *Auditor) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	replicas := make([]uint32, 0, len(a.seenSeq))
	for r := range a.seenSeq {
		replicas = append(replicas, r)
	}
	for r := range a.tracks {
		if !containsReplica(replicas, r) {
			replicas = append(replicas, r)
		}
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	findings := make([]Finding, len(a.findings))
	copy(findings, a.findings)
	return Report{
		Rounds:         a.round,
		Replicas:       replicas,
		LivenessChecks: a.liveness,
		Findings:       findings,
		Truncated:      a.truncated,
	}
}

// Findings returns the detected violations, oldest first.
func (a *Auditor) Findings() []Finding {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Finding, len(a.findings))
	copy(out, a.findings)
	return out
}

// Healthz reports audit health: nil with no findings, an error
// summarizing the first finding otherwise. Compose it into a
// replica's readiness probe to demote /readyz on violations.
func (a *Auditor) Healthz() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.findings) + a.truncated
	if n == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d finding(s); first: [%s] %s", n, a.findings[0].Kind, a.findings[0].Detail)
}

func containsReplica(rs []uint32, r uint32) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}
