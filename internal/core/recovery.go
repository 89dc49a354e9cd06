package core

import (
	"fmt"
	"path/filepath"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
	"hybster/internal/wal"
)

// Certifier is the trusted-counter surface the engine certifies and
// verifies with. *trinx.TrInX satisfies it for volatile operation;
// *trinx.DurableTrInX adds horizon sealing for crash durability.
type Certifier interface {
	CreateContinuing(tc uint32, value uint64, msg crypto.Digest) (trinx.Certificate, error)
	CreateIndependent(tc uint32, value uint64, msg crypto.Digest) (trinx.Certificate, error)
	CreateTrustedMAC(tc uint32, msg crypto.Digest) (trinx.Certificate, error)
	Verify(cert trinx.Certificate, msg crypto.Digest) error
	VerifyCreateIndependent(in trinx.Certificate, inMsg crypto.Digest, tc uint32, value uint64, msg crypto.Digest) (trinx.Certificate, error)
	Destroy()
}

// durability is the engine's crash-recovery state: the write-ahead log
// plus the durable counter instances to seal on shutdown. nil when the
// engine runs without a data dir (the volatile harness configuration).
type durability struct {
	log      *wal.Log
	seals    *wal.SealStore
	durables []*trinx.DurableTrInX
	// recovered is what the WAL held at boot, applied by restore().
	recovered wal.Recovered
}

// openDurability brings up the durable substrate under dataDir:
// the seal store first (counter safety gates everything else), then the
// log. Counter instances are created by the caller, which appends them
// via addDurable.
func openDurability(dataDir string, tel *telemetry.Telemetry) (*durability, error) {
	seals, err := wal.NewSealStore(filepath.Join(dataDir, "seal"))
	if err != nil {
		return nil, err
	}
	log, recovered, err := wal.Open(filepath.Join(dataDir, "wal"), wal.Options{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	return &durability{log: log, seals: seals, recovered: recovered}, nil
}

// newCertifier creates the counter instance for one engine component:
// a durable one when the engine has a data dir, a volatile one
// otherwise. Durable creation fails with trinx.ErrStaleSeal on a
// rolled-back seal and trinx.ErrAmnesia when the platform's seal
// register proves state existed that the disk no longer holds.
func (e *Engine) newCertifier(opts Options, pillar uint32, key crypto.Key) (Certifier, error) {
	id := trinx.MakeInstanceID(opts.ID, pillar)
	if e.dur == nil {
		return trinx.New(opts.Platform, id, numCounters, key, opts.EnclaveCost).Instrument(opts.Telemetry), nil
	}
	d, err := trinx.NewDurable(opts.Platform, id, numCounters, key, opts.EnclaveCost, e.dur.seals, 0)
	if err != nil {
		return nil, fmt.Errorf("core: recover counters of %s: %w", id, err)
	}
	d.Instrument(opts.Telemetry)
	e.dur.durables = append(e.dur.durables, d)
	return d, nil
}

// replay rebuilds execution state from the recovered WAL before the
// execution stage wraps the executor: install the newest
// snapshot-bearing checkpoint (Base), which may trail the stable
// Checkpoint when stability outran local execution before the crash,
// then bridge the rest with the decision tail. Anything past the
// synced tail is fetched later through the normal state-transfer path.
func (d *durability) replay(x *statemachine.Executor, tel *telemetry.Telemetry) {
	rec := d.recovered
	tel.Trace(telemetry.EvRecovery, 0, 0, 0, fmt.Sprintf("wal replay: %d decisions", len(rec.Decisions)))
	if base := rec.Base; base != nil {
		// A snapshot the application refuses leaves execution at
		// genesis; state transfer then brings the replica up.
		_ = x.InstallState(base.Order, base.Snapshot, base.ReplyVector)
	}
	// Buffer tolerates gaps (a hole the sync batch lost); execution
	// stops at the first gap and the executor keeps the rest pending
	// until ordering or state transfer fills it.
	for i := range rec.Decisions {
		x.Buffer(rec.Decisions[i].Order, rec.Decisions[i].Requests)
	}
	// No client replies during replay: the original execution sent
	// them, and clients retransmit if theirs got lost.
	for x.Step() != nil {
	}
}

// restore applies the recovered stable checkpoint to the freshly built
// components. It runs in New, before Start launches any goroutine, so
// it mutates component state directly.
func (e *Engine) restore() {
	if ck := e.dur.recovered.Checkpoint; ck != nil {
		e.coord.ck.Adopt(stableCkpt{
			Order: ck.Order, Digest: ck.Digest, Proof: ck.Proof,
			Snapshot: ck.Snapshot, RV: ck.ReplyVector,
		})
		for _, p := range e.pillars {
			p.advance(ck.Order)
		}
	}
	if last := e.LastExecuted(); last > 0 {
		for _, p := range e.pillars {
			// The pillar cannot re-certify replayed instances (counters
			// resumed past them); move its cursor beyond the replay so
			// fresh ordering starts cleanly after it.
			if p.cursor <= last {
				p.cursor = p.firstClassOrder(last)
			}
		}
	}
}

// logDecision appends a committed instance to the WAL (no-op without a
// data dir). Append errors are not fatal: the WAL is a warm-recovery
// accelerator, safety rests on the sealed counters.
func (e *Engine) logDecision(v timeline.View, o timeline.Order, batch []*message.Request) {
	if e.dur == nil {
		return
	}
	_ = e.dur.log.AppendDecision(&wal.DecisionRec{View: v, Order: o, Requests: batch})
}

// logCheckpoint appends a stable checkpoint to the WAL, which also
// garbage-collects segments the checkpoint subsumes.
func (e *Engine) logCheckpoint(st *stableCkpt) {
	if e.dur == nil {
		return
	}
	_ = e.dur.log.AppendCheckpoint(&wal.CheckpointRec{
		Order: st.Order, Digest: st.Digest,
		Snapshot: st.Snapshot, ReplyVector: st.RV, Proof: st.Proof,
	})
}

// shutdownDurability flushes the WAL and seals exact counter values so
// a clean stop recovers warm (no horizon jump). Called from Stop after
// the event loops drained.
func (e *Engine) shutdownDurability() {
	if e.dur == nil {
		return
	}
	for _, d := range e.dur.durables {
		_ = d.SealNow()
	}
	_ = e.dur.log.Close()
}

// abandonDurability is shutdownDurability's kill -9 twin, called from
// Kill: no exact-value seal (the next boot must take the horizon
// jump), and the WAL is abandoned with its unsynced tail torn so
// recovery faces the same artifact a real crash leaves.
func (e *Engine) abandonDurability() {
	if e.dur == nil {
		return
	}
	_ = e.dur.log.Abandon()
}
