package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybster/internal/timeline"
)

// Watchdog tracks whether admitted work is being executed. The Host
// embeds it: it backs /healthz and /readyz, tells the view-change logic
// how long work has been stalled and how patient to be, and is the
// tick source of the replica.
//
// NoteWork, NoteProgress, Stalled and the probes are safe from any
// goroutine. The patience state (Patience, Escalate, Relax,
// ObserveExec) is confined to the one loop that handles Tick events.
type Watchdog struct {
	name    string // error-text prefix: "core", "pbft", "minbft"
	timeout time.Duration
	now     func() time.Time

	// pendingSince is the unix-nano time of the oldest unserved work;
	// 0 = none.
	pendingSince atomic.Int64

	stopped chan struct{} // closed by the Host when the engine shuts down

	// backoff counts consecutive view-change timeouts without
	// execution progress; the effective timeout doubles with each one.
	// Without the backoff, two crash survivors under message loss chase
	// each other's pending views in lockstep forever: each NEW-VIEW
	// arrives after the follower's constant-rate timer has already
	// aborted past its view, so it is acknowledged but never installed.
	backoff uint
	// lastExecSeen tracks execution progress between ticks to reset the
	// backoff once the configuration orders again.
	lastExecSeen timeline.Order
}

// newWatchdog creates the watchdog of one replica. timeout is the
// configured view-change timeout and a nil now means time.Now.
func newWatchdog(name string, timeout time.Duration, now func() time.Time) *Watchdog {
	if now == nil {
		now = time.Now
	}
	return &Watchdog{name: name, timeout: timeout, now: now, stopped: make(chan struct{})}
}

// Now reads the replica's (possibly injected) clock.
func (w *Watchdog) Now() time.Time { return w.now() }

// Stopped is closed when the engine shuts down; loops blocked on a
// hand-off select on it.
func (w *Watchdog) Stopped() <-chan struct{} { return w.stopped }

// NoteWork records the arrival of work.
func (w *Watchdog) NoteWork() {
	if w.pendingSince.Load() == 0 {
		w.pendingSince.CompareAndSwap(0, w.now().UnixNano())
	}
}

// NoteProgress records execution progress: if the executor has no
// buffered instances the pending marker clears, otherwise it restarts.
func (w *Watchdog) NoteProgress(stillPending bool) {
	if stillPending {
		w.pendingSince.Store(w.now().UnixNano())
	} else {
		w.pendingSince.Store(0)
	}
}

// Stalled returns how long work has been pending without execution
// progress; 0 when nothing is pending.
func (w *Watchdog) Stalled() time.Duration {
	ps := w.pendingSince.Load()
	if ps == 0 {
		return 0
	}
	return w.now().Sub(time.Unix(0, ps))
}

// Healthz reports process liveness: nil while the engine runs, an
// error once it stopped. Backs the ops server's /healthz.
func (w *Watchdog) Healthz() error {
	select {
	case <-w.stopped:
		return fmt.Errorf("%s: engine stopped", w.name)
	default:
		return nil
	}
}

// Readyz reports serving readiness: the engine is live AND not stuck.
// "Stuck" means work has been pending without execution progress for
// more than twice the view-change timeout — long enough that the
// watchdog should have rotated the view, so something is genuinely
// wedged. Backs the ops server's /readyz.
func (w *Watchdog) Readyz() error {
	if err := w.Healthz(); err != nil {
		return err
	}
	if stalled := w.Stalled(); stalled > 2*w.timeout {
		return fmt.Errorf("%s: no execution progress for %v", w.name, stalled.Round(time.Millisecond))
	}
	return nil
}

// Patience is the current view-change timeout: the configured one
// doubled per consecutive fruitless escalation, capped at 8x. The
// exponential backoff lets a reduced group dwell in a pending view
// long enough for retransmitted VIEW-CHANGEs and the NEW-VIEW to make
// the round trip even under loss (the paper's liveness argument
// assumes eventually-sufficient timeouts).
func (w *Watchdog) Patience() time.Duration {
	shift := w.backoff
	if shift > 3 {
		shift = 3
	}
	return w.timeout << shift
}

// Escalate records one more view-change timeout without progress.
func (w *Watchdog) Escalate() { w.backoff++ }

// Relax resets the patience: the configuration orders again.
func (w *Watchdog) Relax() { w.backoff = 0 }

// ObserveExec relaxes the patience when execution advanced since the
// previous call; tick handlers pass the executed frontier.
func (w *Watchdog) ObserveExec(executed timeline.Order) {
	if executed > w.lastExecSeen {
		w.lastExecSeen = executed
		w.backoff = 0
	}
}

// runTicker posts a tick every quarter view-change timeout and
// returns once the engine stopped.
func (w *Watchdog) runTicker(post func()) {
	t := time.NewTicker(w.timeout / 4)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			post()
		case <-w.stopped:
			return
		}
	}
}
