package engine

import (
	"fmt"

	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/wal"
)

// replay rebuilds execution state from the recovered WAL before the
// execution stage wraps the executor: install the newest
// snapshot-bearing checkpoint (Base), which may trail the stable
// Checkpoint when stability outran local execution before the crash,
// then bridge the rest with the decision tail. Anything past the
// synced tail is fetched later through the normal state-transfer path.
func replay(x *statemachine.Executor, rec wal.Recovered, tel *telemetry.Telemetry) {
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

// Decide logs the committed instance (v, o, batch), records o as
// committed and delivers it to the execution stage; every protocol
// commits through it. own is as for ExecLoop.Deliver. An append error
// is not fatal: the log only spares a restart the state transfer.
func (h *Host) Decide(v timeline.View, o timeline.Order, batch []*message.Request, own bool) {
	if h.log != nil {
		_ = h.log.AppendDecision(&wal.DecisionRec{View: v, Order: o, Requests: batch})
	}
	h.raiseCommitted(o)
	h.Exec.Deliver(o, batch, own)
}

// raiseCommitted records that every order up to o is committed: by a
// decision of this replica (Decide) or by an installed checkpoint,
// whose certificate says the group committed everything below it.
func (h *Host) raiseCommitted(o timeline.Order) {
	for c := h.committed.Load(); uint64(o) > c && !h.committed.CompareAndSwap(c, uint64(o)); {
		c = h.committed.Load()
	}
}
