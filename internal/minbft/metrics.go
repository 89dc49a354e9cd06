package minbft

import "sync/atomic"

// gaugeMirror publishes run-loop-owned protocol fields for lock-free
// sampling by gauge callbacks. Registry.Snapshot runs on whatever
// goroutine scrapes it (the ops server, the audit monitor's poller),
// so the callbacks cannot touch loop-confined state directly; the run
// loop stores fresh values here after every event, and readers see a
// snapshot at most one event stale.
type gaugeMirror struct {
	// pendingTo is the target view while a view change is pending;
	// 0 means no view change in flight (install resets it).
	pendingTo atomic.Uint64
	nextOrder atomic.Uint64
	low       atomic.Uint64
}

// registerGauges installs the sampled gauges over live protocol-loop
// state; re-registration on restart swaps the callbacks. MinBFT has no
// pillars (the protocol is sequential), so nothing carries a pillar
// label.
func (e *Engine) registerGauges() {
	e.Met.GaugeFunc("inbox_depth", "queued protocol events",
		func() float64 { return float64(e.CoordBox.Len()) })
	// Protocol-loop state snapshots, read from the atomic mirror the
	// loop refreshes after every event — sampled values may be one
	// event stale, which is good enough for the post-mortem question
	// they answer ("where was this replica wedged?").
	e.Met.GaugeFunc("view", "current view number",
		func() float64 { return float64(e.View()) })
	e.Met.GaugeFunc("pending_view", "target view while a view change is pending (0 = none)",
		func() float64 { return float64(e.gm.pendingTo.Load()) })
	e.Met.GaugeFunc("next_order", "next order number to assign",
		func() float64 { return float64(e.gm.nextOrder.Load()) })
	e.Met.GaugeFunc("low_watermark", "last stable checkpoint order",
		func() float64 { return float64(e.gm.low.Load()) })
	e.Met.GaugeFunc("queue_len", "client requests queued for proposal",
		func() float64 { e.mu.Lock(); defer e.mu.Unlock(); return float64(len(e.queue)) })
	e.Met.GaugeFunc("history_len", "sent-message history length (§4.4's unbounded state)",
		func() float64 { return float64(e.HistoryLen()) })
	e.Met.GaugeFunc("deaf_streams", "sender streams with an undrainable expected-counter gap",
		func() float64 { return float64(e.deafStreams.Load()) })
	e.Met.GaugeFunc("holdback_horizon", "counter gap beyond which a stream cannot drain (4x window)",
		func() float64 { return float64(4 * e.Cfg.WindowSize) })
}

// publishGauges refreshes the atomic gauge mirror from the run-loop
// state. Called by the run loop after every event (and once at
// assembly, so gauges are sane before the loop starts).
func (e *Engine) publishGauges() {
	e.gm.pendingTo.Store(uint64(e.pendingTo))
	e.gm.nextOrder.Store(uint64(e.nextOrder))
	e.gm.low.Store(uint64(e.low))
}
