package trinx

import (
	"fmt"
	"time"

	"hybster/internal/telemetry"
)

// op indexes the instance's ECall-bearing operations for metrics.
type op int

const (
	opCreateContinuing op = iota
	opCreateIndependent
	opCreateTrustedMAC
	opCreateMulti
	opVerify
	opVerifyMulti
	opVerifyCreateIndependent
	opCounterRead
	numOps
)

// opNames label the operations. Consumers sum ECalls by name prefix
// ("create…", "verify…"), so each name starts with exactly one of the
// two; the fused verify-then-certify call counts once, under "verify".
var opNames = [numOps]string{
	"create_continuing",
	"create_independent",
	"create_trusted_mac",
	"create_multi",
	"verify",
	"verify_multi",
	"verify_create_independent",
	"counter_read",
}

// instruments holds the metric handles of one instrumented instance,
// resolved once at Instrument time so the hot path never touches the
// registry. A nil *instruments (the default) disables everything: the
// ecall wrapper then skips even the clock reads.
type instruments struct {
	calls [numOps]*telemetry.Counter
	lat   [numOps]*telemetry.Histogram
}

// Instrument attaches telemetry to the instance and returns the
// receiver. Every ECall-bearing operation is counted and timed under
// hybster_trinx_ecalls_total / hybster_trinx_ecall_seconds, labeled
// by operation and the instance's pillar. Call before the instance is
// shared across goroutines (it mutates the handle).
func (t *TrInX) Instrument(tel *telemetry.Telemetry) *TrInX {
	if tel == nil {
		return t
	}
	m := &instruments{}
	pillar := telemetry.L("pillar", fmt.Sprint(t.id.Pillar()))
	for o := op(0); o < numOps; o++ {
		opLabel := telemetry.L("op", opNames[o])
		m.calls[o] = tel.Counter("hybster_trinx_ecalls_total",
			"ECalls into the TrInX enclave by operation", opLabel, pillar)
		m.lat[o] = tel.Histogram("hybster_trinx_ecall_seconds",
			"ECall round-trip latency by operation", opLabel, pillar)
	}
	t.met = m
	return t
}

// ecall routes an operation through the enclave, counting and timing
// it when the instance is instrumented. The uninstrumented path adds
// one nil check over a bare ECall — no clock reads, no atomics.
func (t *TrInX) ecall(o op, fn func(any) (any, error)) (any, error) {
	if t.met == nil {
		return t.enc.ECall(fn)
	}
	start := time.Now()
	res, err := t.enc.ECall(fn)
	t.met.calls[o].Inc()
	t.met.lat[o].ObserveDuration(time.Since(start))
	return res, err
}
