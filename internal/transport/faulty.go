package transport

import (
	"sync"
	"time"

	"hybster/internal/message"
)

// Fault is the decision an Injector takes for one outbound message.
// The zero Fault delivers the message untouched.
type Fault struct {
	// Drop discards the message.
	Drop bool
	// Duplicate delivers the message twice.
	Duplicate bool
	// Corrupt flips one byte of the marshaled frame before delivery.
	// Corruptions that no longer parse are dropped (a real network
	// stack's checksum would have discarded them); corruptions that
	// still parse reach the receiver and must be rejected by message
	// verification.
	Corrupt bool
	// CorruptPos selects the flipped byte (modulo the frame length).
	CorruptPos uint32
	// CorruptXOR is the flip mask; zero corrupts nothing.
	CorruptXOR byte
	// Delay postpones delivery without blocking the sender.
	Delay time.Duration
	// Hold parks the message so that the link's next message overtakes
	// it (a one-slot reordering); held messages are flushed after
	// holdFlushDelay if nothing follows.
	Hold bool
}

// Injector decides the fault applied to the seq-th message sent on the
// link from→to. Implementations must be safe for concurrent use across
// links; the decorator guarantees that per link, Decide is called with
// strictly ascending seq in send order, which is what makes a seeded
// injector's fault sequence reproducible.
type Injector interface {
	Decide(from, to uint32, seq uint64) Fault
}

// FaultStats counts the faults a FaultyEndpoint injected.
type FaultStats struct {
	Sent           uint64 // Send calls observed
	Dropped        uint64 // messages discarded
	Duplicated     uint64 // extra copies delivered
	Corrupted      uint64 // messages delivered with a flipped byte
	CorruptDropped uint64 // corruptions that no longer parsed
	Delayed        uint64 // messages delivered late
	Held           uint64 // messages overtaken by a successor
}

// holdFlushDelay bounds how long a held (reordered) message waits for a
// successor before it is delivered anyway.
const holdFlushDelay = 25 * time.Millisecond

// FaultyEndpoint decorates any Endpoint (memnet or TCP) with
// deterministic fault injection on the send side. Wrapping every node
// of a cluster covers every link. Inbound traffic is untouched: each
// link's faults are injected exactly once, by its sender.
type FaultyEndpoint struct {
	inner Endpoint
	inj   Injector

	mu       sync.Mutex
	seq      map[uint32]uint64          // per-destination message counter
	held     map[uint32]message.Message // per-destination reorder slot
	closed   bool
	quiesced bool
	stats    FaultStats
}

// WrapFaulty decorates inner with fault injection driven by inj.
func WrapFaulty(inner Endpoint, inj Injector) *FaultyEndpoint {
	return &FaultyEndpoint{
		inner: inner,
		inj:   inj,
		seq:   make(map[uint32]uint64),
		held:  make(map[uint32]message.Message),
	}
}

// ID implements Endpoint.
func (f *FaultyEndpoint) ID() uint32 { return f.inner.ID() }

// Handle implements Endpoint.
func (f *FaultyEndpoint) Handle(h Handler) { f.inner.Handle(h) }

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultyEndpoint) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Quiesce stops fault injection: the schedule's fault window is over
// and every later message passes through untouched. Held messages are
// released so nothing from the window stays parked.
func (f *FaultyEndpoint) Quiesce() {
	f.mu.Lock()
	f.quiesced = true
	held := f.held
	f.held = make(map[uint32]message.Message)
	f.mu.Unlock()
	for to, m := range held {
		_ = f.inner.Send(to, m)
	}
}

// Send implements Endpoint. Faults apply per link in send order; the
// per-link decision sequence is exactly the injector's, so a run can be
// replayed from the injector's seed.
func (f *FaultyEndpoint) Send(to uint32, m message.Message) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.quiesced {
		f.stats.Sent++
		f.mu.Unlock()
		return f.inner.Send(to, m)
	}
	n := f.seq[to]
	f.seq[to] = n + 1
	fault := f.inj.Decide(f.inner.ID(), to, n)
	prev, hadPrev := f.held[to]
	delete(f.held, to)

	f.stats.Sent++
	out := m
	deliver := !fault.Drop
	if fault.Drop {
		f.stats.Dropped++
	} else if fault.Corrupt {
		if out = corruptMessage(m, fault.CorruptPos, fault.CorruptXOR); out == nil {
			f.stats.CorruptDropped++
			deliver = false
		} else {
			f.stats.Corrupted++
		}
	}
	hold := deliver && fault.Hold
	if hold {
		f.stats.Held++
		f.held[to] = out
		held := out
		time.AfterFunc(holdFlushDelay, func() { f.flushHeld(to, held) })
	}
	if deliver && !hold {
		if fault.Delay > 0 {
			f.stats.Delayed++
		}
		if fault.Duplicate {
			f.stats.Duplicated++
		}
	}
	f.mu.Unlock()

	var err error
	if deliver && !hold {
		if fault.Delay > 0 {
			msg := out
			time.AfterFunc(fault.Delay, func() { _ = f.inner.Send(to, msg) })
		} else {
			err = f.inner.Send(to, out)
		}
		if fault.Duplicate {
			_ = f.inner.Send(to, out)
		}
	}
	// The previously held message is released after the current one,
	// completing the reordering.
	if hadPrev {
		_ = f.inner.Send(to, prev)
	}
	return err
}

// Multicast implements Multicaster by applying Send per destination.
// Fault decisions are strictly per (link, seq), so a broadcast must
// consume exactly one injector decision on every destination link —
// sharing work across destinations would change the replayable fault
// schedule.
func (f *FaultyEndpoint) Multicast(dests []uint32, m message.Message) {
	for _, to := range dests {
		_ = f.Send(to, m)
	}
}

// flushHeld delivers a held message if it is still parked (no successor
// released it).
func (f *FaultyEndpoint) flushHeld(to uint32, m message.Message) {
	f.mu.Lock()
	cur, ok := f.held[to]
	if !ok || cur != m || f.closed {
		f.mu.Unlock()
		return
	}
	delete(f.held, to)
	f.mu.Unlock()
	_ = f.inner.Send(to, m)
}

// Close implements Endpoint; held messages are discarded.
func (f *FaultyEndpoint) Close() error {
	f.mu.Lock()
	f.closed = true
	f.held = make(map[uint32]message.Message)
	f.mu.Unlock()
	return f.inner.Close()
}

// corruptMessage flips one byte of m's wire encoding and re-parses it.
// It returns nil when the corruption no longer parses (the message is
// then dropped, like a frame failing a checksum).
func corruptMessage(m message.Message, pos uint32, xor byte) message.Message {
	if xor == 0 {
		xor = 0x01
	}
	raw := message.Marshal(m)
	if len(raw) == 0 {
		return nil
	}
	b := append([]byte(nil), raw...)
	b[int(pos)%len(b)] ^= xor
	out, err := message.Unmarshal(b)
	if err != nil {
		return nil
	}
	return out
}
