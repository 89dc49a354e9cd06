package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hybster/internal/timeline"
)

// Standing is where one replica stands, for every protocol. It tells
// why a replica is behind: its window refuses (the group is past
// Stable+WindowSize), its state request is unanswered (StateRequested
// set, Executed < Stable), or execution backs up (Committed ≫ Executed).
type Standing struct {
	// View is the installed view, Pending the view aborted into and not
	// installed (0 = none), Desired the highest view wanted (Hybster
	// keeps it after an install), VCHolders the replicas whose
	// VIEW-CHANGE for Pending is held, ascending.
	View      timeline.View `json:"view"`
	Pending   timeline.View `json:"pending"`
	Desired   timeline.View `json:"desired"`
	VCHolders []uint32      `json:"vc_holders,omitempty"`
	// Suspects are the replicas suspecting the view it is in or pending at.
	Suspects []uint32 `json:"suspects,omitempty"`
	// Committed is the highest order handed to Host.Decide (or replayed
	// at boot), ExecQueue the execution stage's inbox depth.
	Executed  timeline.Order `json:"executed"`
	Committed timeline.Order `json:"committed"`
	ExecQueue int            `json:"exec_queue"`
	// Stable is the last stable checkpoint, so the ordering window is
	// (Stable, Stable+WindowSize]; StateRequested is when state was last
	// asked for (zero = never).
	Stable         timeline.Order `json:"stable"`
	StateRequested time.Time      `json:"state_requested"`
	// Stalled is how long admitted work has waited (Watchdog.Stalled).
	Stalled time.Duration `json:"stalled"`
	// Deaf counts the sender streams MinBFT can no longer drain: an
	// ordering message waits beyond the holdback horizon, and only a
	// view change re-anchors the stream.
	Deaf int `json:"deaf,omitempty"`
}

// String is the one human form. It ends in where the view change
// stands: `pending→3 desired=4 vcs[3]={r0 r2}`, or `desired=1` with
// none pending, then `sus[v]={r1}` while suspicions of the view are
// held; `deaf=N` precedes it when N streams are deaf.
func (s Standing) String() string {
	req := "never"
	if !s.StateRequested.IsZero() {
		req = time.Since(s.StateRequested).Round(time.Millisecond).String() + " ago"
	}
	vc := fmt.Sprintf("desired=%d", s.Desired)
	if s.Pending != 0 {
		vc = fmt.Sprintf("pending→%d %s vcs[%d]={%s}", s.Pending, vc, s.Pending, replicas(s.VCHolders))
	}
	if len(s.Suspects) != 0 {
		vc = fmt.Sprintf("%s sus[%d]={%s}", vc, max(s.View, s.Pending), replicas(s.Suspects))
	}
	if s.Deaf != 0 {
		vc = fmt.Sprintf("deaf=%d %s", s.Deaf, vc)
	}
	return fmt.Sprintf("view=%d exec=%d committed=%d queue=%d stable=%d statereq=%s stalled=%v %s",
		s.View, s.Executed, s.Committed, s.ExecQueue, s.Stable, req, s.Stalled.Round(time.Millisecond), vc)
}

// replicas lists replica IDs as `r0 r2`.
func replicas(ids []uint32) string {
	names := make([]string, len(ids))
	for i, r := range ids {
		names[i] = fmt.Sprintf("r%d", r)
	}
	return strings.Join(names, " ")
}

// publish refreshes the coordinator loop's part of the standing after
// each of its events; unchanged, it allocates nothing (MinBFT's loop
// handles every message).
func (h *Host) publish() {
	next := &h.next
	*next = Standing{VCHolders: next.VCHolders[:0], Suspects: next.Suspects[:0]}
	if h.ck != nil {
		h.ck.fillStanding(next)
	}
	for r := range h.suspects[h.suspectedView()] {
		next.Suspects = append(next.Suspects, r)
	}
	if h.hd.Standing != nil {
		h.hd.Standing(next)
	}
	// A replica wants at least the view it is pending at.
	next.Pending = h.Pending
	next.Desired = max(next.Desired, next.Pending)
	slices.Sort(next.VCHolders)
	slices.Sort(next.Suspects)
	cur := h.standing.Load()
	if cur.Pending == next.Pending && cur.Desired == next.Desired && cur.Stable == next.Stable &&
		cur.StateRequested.Equal(next.StateRequested) && cur.Deaf == next.Deaf &&
		slices.Equal(cur.VCHolders, next.VCHolders) && slices.Equal(cur.Suspects, next.Suspects) {
		return
	}
	s := *next
	s.VCHolders, s.Suspects = slices.Clone(next.VCHolders), slices.Clone(next.Suspects)
	h.standing.Store(&s)
}

// Standing returns where the replica stands: the coordinator loop's
// part as of its last event, the rest as of now. Safe from any goroutine.
func (h *Host) Standing() Standing {
	s := *h.standing.Load()
	s.View, s.Executed, s.ExecQueue = h.View(), h.Exec.LastExecuted(), h.Exec.inbox.Len()
	s.Committed, s.Stalled = timeline.Order(h.committed.Load()), h.Stalled()
	return s
}
