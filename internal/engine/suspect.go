package engine

import (
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// suspectedView is the view this replica is pending at, else its own.
func (h *Host) suspectedView() timeline.View { return max(h.View(), h.Pending) }

// Suspect is every protocol's abort trigger (DESIGN.md §6): it records
// and multicasts this replica's suspicion of its suspected view, which
// f+1 suspicions abort. Execution behind both the stable checkpoint and
// its own decisions waits for a state transfer, not the view, unless a
// peer already suspects the view.
func (h *Host) Suspect() {
	if exec := h.Exec.LastExecuted(); h.Pending == 0 && h.standing.Load().Stable > exec &&
		timeline.Order(h.committed.Load()) > exec && len(h.suspects[h.View()]) == 0 {
		return
	}
	if v := h.suspectedView(); !h.suspects[v][h.id] {
		h.Met.Suspects.Inc()
		transport.Multicast(h.Ep, h.Cfg.N, h.suspicion(v))
		h.noteSuspect(h.id, v)
	}
}

// Watch is the tick's watchdog step in the installed view of a protocol
// with a Sequencer: stalled for a full timeout, it suspects; for an
// eighth of one, it fills a gap on an own order with a no-op (§5.3.1).
func (h *Host) Watch() {
	if stalled := h.Stalled(); stalled > h.timeout {
		h.Suspect()
	} else if stalled > h.timeout/8 {
		h.Seq.ProposeNoop(h.View(), h.LastExecuted()+1)
	}
}

// suspicion is this replica's SUSPECT of view v.
func (h *Host) suspicion(v timeline.View) *message.Suspect {
	s := &message.Suspect{Replica: h.id, View: v}
	s.Auth = crypto.NewAuthenticator(h.Keys, s.Digest(), h.Cfg.N)
	return s
}

// handleSuspect takes peer r's SUSPECT of v. A peer suspecting a view
// below the installed one missed its NEW-VIEW (Lags); one suspecting a
// view this replica aborted is told so, or each waits for the other.
func (h *Host) handleSuspect(r uint32, v timeline.View) {
	switch {
	case v < h.View():
		if h.hd.Lags != nil {
			h.hd.Lags(r)
		}
	case v < h.suspectedView():
		_ = h.Ep.Send(r, h.suspicion(v))
	default:
		h.noteSuspect(r, v)
	}
}

// noteSuspect records that replica r suspects view v and, once f+1
// distinct replicas do, hands v+1 to the protocol's abort step.
func (h *Host) noteSuspect(r uint32, v timeline.View) {
	by := h.suspects[v]
	if by == nil {
		by = make(map[uint32]bool)
		h.suspects[v] = by
	}
	by[r] = true
	if len(by) > h.Cfg.F() && v+1 > h.suspectedView() {
		h.hd.Abort(v + 1)
	}
}

// resuspect re-multicasts this replica's standing suspicion on a tick
// while execution stays stalled, in case a copy was lost.
func (h *Host) resuspect() {
	if v := h.suspectedView(); h.suspects[v][h.id] && h.Stalled() > h.timeout {
		transport.Multicast(h.Ep, h.Cfg.N, h.suspicion(v))
	}
}
