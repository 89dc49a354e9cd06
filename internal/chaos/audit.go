package chaos

import (
	"time"

	"hybster/internal/audit"
	"hybster/internal/config"
	"hybster/internal/engine"
	"hybster/internal/statemachine"
)

// auditPollInterval is the online auditor's sampling cadence during a
// chaos run: fast enough that a trace ring (4096 events) cannot wrap
// past the auditor between polls at chaos commit rates, slow enough
// to stay off the protocol's critical path.
const auditPollInterval = 50 * time.Millisecond

// ForkSpec deliberately diverges one replica's state machine: every
// write it executes is perturbed before reaching the application, so
// its state — and therefore its checkpoint digests — silently drift
// from its peers while all of its ordering messages remain perfectly
// well-formed. This is the distilled PR 8 bug class: a replica that
// answers every probe, votes in every instance, and is wrong. A run
// with a Fork must end with the online auditor holding a
// digest-divergence finding; the history safety check independently
// fails, so Run also returns an error.
type ForkSpec struct {
	// Replica is the replica whose execution is forked.
	Replica uint32
}

// forkApp implements the fork: writes have their first payload byte
// bumped before execution. Reads and snapshots pass through — the
// divergence lives purely in the accumulated state.
type forkApp struct {
	inner statemachine.Application
}

func (f *forkApp) Execute(client uint32, payload []byte, readOnly bool) []byte {
	if !readOnly {
		p := append([]byte(nil), payload...)
		if len(p) > 0 {
			p[0]++
		} else {
			p = []byte{2}
		}
		payload = p
	}
	return f.inner.Execute(client, payload, readOnly)
}

func (f *forkApp) Snapshot() []byte              { return f.inner.Snapshot() }
func (f *forkApp) Restore(snapshot []byte) error { return f.inner.Restore(snapshot) }

// startAudit attaches the online protocol auditor to the running
// cluster: one in-process telemetry source per replica, polled on a
// fixed cadence for the whole run. Safety checks (digest divergence)
// are armed from the first poll; liveness checks stay disarmed until
// the harness heals the cluster (see Run), because a replica the plan
// deliberately crashed is not "stalled".
//
// Thresholds scale with the chaos configuration: the frontier-stall
// and checkpoint-lag gaps are multiples of the window size, and every
// persistence bar is ≥1s of consecutive polls, so a replica in the
// middle of a legitimate post-heal catch-up never trips a finding.
func (r *run) startAudit() {
	sources := make([]audit.Source, r.cfg.N)
	for id := uint32(0); int(id) < r.cfg.N; id++ {
		id := id
		sources[id] = audit.TelemetrySource(id, r.cl.Telemetry(id), func() *engine.Standing {
			return r.auditStanding(id)
		})
	}
	auditor := audit.New(audit.Options{
		FrontierStallGap: uint64(4 * r.cfg.WindowSize),
		StallRounds:      20,
		StormViews:       6,
		StormRounds:      40,
		DeafRounds:       20,
		CheckpointLagMax: uint64(8 * r.cfg.WindowSize),
		LagRounds:        20,
	})
	r.mon = audit.NewMonitor(auditor, auditPollInterval, sources...)
	r.mon.Start()
}

// auditStanding is where a replica stands for the auditor; nil (down, a
// zombie, or a restarted MinBFT replica, as in settle) exempts it.
func (r *run) auditStanding(id uint32) *engine.Standing {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Protocol == config.MinBFT && r.restarted[id] {
		return nil
	}
	return r.cl.Standing(id)
}

// stopAudit halts the poller and takes one final synchronous round so
// the report covers the run's end state. Idempotent: Run stops the
// auditor explicitly before building results and again via defer.
func (r *run) stopAudit() {
	r.mu.Lock()
	mon, stopped := r.mon, r.auditStopped
	r.auditStopped = true
	r.mu.Unlock()
	if mon == nil || stopped {
		return
	}
	mon.Stop()
	mon.Poll()
}
