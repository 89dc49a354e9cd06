package minbft

import (
	"hybster/internal/engine"
	"hybster/internal/timeline"
)

// registerGauges installs the sampled gauges over live protocol-loop
// state; re-registration on restart swaps the callbacks. MinBFT has no
// pillars (the protocol is sequential), so nothing carries a pillar
// label.
func (e *Engine) registerGauges() {
	e.Met.GaugeFunc("inbox_depth", "queued protocol events",
		func() float64 { return float64(e.CoordBox.Len()) })
	e.Met.GaugeFunc("pending_view", "target view while a view change is pending (0 = none)",
		func() float64 { return float64(e.Standing().Pending) })
	e.Met.GaugeFunc("low_watermark", "last stable checkpoint order",
		func() float64 { return float64(e.Standing().Stable) })
	e.Met.GaugeFunc("deaf_streams", "sender streams with an undrainable expected-counter gap",
		func() float64 { return float64(e.Standing().Deaf) })
	e.Met.GaugeFunc("holdback_horizon", "counter gap beyond which a stream cannot drain (4x window)",
		func() float64 { return float64(4 * e.Cfg.WindowSize) })
}

// setNextOrder moves the order cursor and its gauge.
func (e *Engine) setNextOrder(o timeline.Order) {
	e.nextOrder = o
	e.nextOrderG.Set(int64(o))
}

// standing fills the view-change fields of the replica's engine.Standing
// and the count of deaf sender streams.
func (e *Engine) standing(s *engine.Standing) {
	s.Desired, s.Deaf = e.View(), len(e.deaf)
	for r := range e.vcs[e.Pending] {
		s.VCHolders = append(s.VCHolders, r)
	}
}
