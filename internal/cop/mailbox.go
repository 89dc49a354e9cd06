// Package cop provides the building blocks of the consensus-oriented
// parallelization scheme (Behl et al., Middleware '15) that HybsterX
// and the PBFT baseline are built on: replicas are composed of equal
// processing units — pillars — that share no state and communicate via
// asynchronous in-memory message passing only (§5.3).
//
// The Mailbox is that in-memory message channel: an unbounded
// multi-producer single-consumer queue. Unboundedness matters — the
// internal protocols between pillars, coordinator, and execution stage
// form cycles (e.g. pillar → executor → coordinator → pillar for
// checkpoints), and bounded channels could deadlock under bursts.
// Memory remains bounded because every producer is itself throttled by
// the ordering window. Producers outside any such cycle — the senders
// on a memnet link — use PutBounded instead and block at a limit.
package cop

import "sync"

// minMailboxCap is the smallest ring allocation; the ring shrinks back
// to this size when it drains after a burst.
const minMailboxCap = 16

// Mailbox is an MPSC queue backed by a growable ring buffer: Put and
// Get are O(1) at any depth (the previous slice-shift implementation
// made every Get O(n) while a burst was queued). The zero value is not
// usable; create with NewMailbox.
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond // consumers wait here for a value
	space  *sync.Cond // PutBounded producers wait here for room
	buf    []T        // ring storage; len(buf) is the capacity
	head   int        // index of the oldest element
	count  int        // number of queued elements
	nfull  int        // producers blocked in PutBounded
	closed bool
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	m := &Mailbox[T]{}
	m.cond = sync.NewCond(&m.mu)
	m.space = sync.NewCond(&m.mu)
	return m
}

// grow doubles the ring (or allocates the initial one), unwrapping the
// elements into the new storage. Caller holds m.mu.
func (m *Mailbox[T]) grow() {
	newCap := 2 * len(m.buf)
	if newCap < minMailboxCap {
		newCap = minMailboxCap
	}
	buf := make([]T, newCap)
	m.unwrapInto(buf)
	m.buf = buf
	m.head = 0
}

// unwrapInto copies the queued elements, oldest first, into dst.
// Caller holds m.mu; len(dst) >= m.count.
func (m *Mailbox[T]) unwrapInto(dst []T) {
	n := copy(dst, m.buf[m.head:min(m.head+m.count, len(m.buf))])
	if n < m.count {
		copy(dst[n:], m.buf[:m.count-n])
	}
}

// pop removes and returns the oldest element. Caller holds m.mu and
// guarantees count > 0.
func (m *Mailbox[T]) pop() T {
	var zero T
	v := m.buf[m.head]
	m.buf[m.head] = zero // release the reference for the GC
	m.head++
	if m.head == len(m.buf) {
		m.head = 0
	}
	m.count--
	m.maybeShrink()
	if m.nfull > 0 {
		m.space.Signal()
	}
	return v
}

// maybeShrink lets the ring return burst storage once the queue is
// near-empty again (the steady state). Caller holds m.mu.
func (m *Mailbox[T]) maybeShrink() {
	if len(m.buf) > minMailboxCap && m.count <= len(m.buf)/4 && m.count <= minMailboxCap/2 {
		buf := make([]T, minMailboxCap)
		m.unwrapInto(buf)
		m.buf = buf
		m.head = 0
	}
}

// Put enqueues v. Puts on a closed mailbox are silently discarded
// (shutdown races are benign).
func (m *Mailbox[T]) Put(v T) {
	m.mu.Lock()
	if !m.closed {
		m.push(v)
	}
	m.mu.Unlock()
}

// PutBounded enqueues v once fewer than limit values are queued,
// blocking the producer while the mailbox is at the bound. It reports
// false, without enqueueing, if the mailbox is closed or closes while
// the producer waits. Bounded and unbounded producers may share a
// mailbox; only PutBounded callers observe the bound.
func (m *Mailbox[T]) PutBounded(v T, limit int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count >= limit && !m.closed {
		m.nfull++
		m.space.Wait()
		m.nfull--
	}
	if m.closed {
		return false
	}
	m.push(v)
	return true
}

// push appends v and wakes a consumer. Caller holds m.mu and has
// checked that the mailbox is open.
func (m *Mailbox[T]) push(v T) {
	if m.count == len(m.buf) {
		m.grow()
	}
	i := m.head + m.count
	if i >= len(m.buf) {
		i -= len(m.buf)
	}
	m.buf[i] = v
	m.count++
	m.cond.Signal()
}

// Get dequeues the next value, blocking until one is available or the
// mailbox closes. ok is false when the mailbox is closed and drained.
func (m *Mailbox[T]) Get() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.count == 0 {
		return v, false
	}
	return m.pop(), true
}

// GetBatch dequeues up to cap(dst)-len(dst) queued values into dst in
// FIFO order under one lock acquisition, blocking until at least one
// value is available or the mailbox closes. It returns the extended
// slice; a nil result with ok=false means closed and drained. Event
// loops use it to drain bursts without paying one lock round-trip per
// event.
func (m *Mailbox[T]) GetBatch(dst []T) (out []T, ok bool) {
	room := cap(dst) - len(dst)
	if room <= 0 {
		return dst, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.count == 0 {
		return dst, false
	}
	n := m.count
	if n > room {
		n = room
	}
	for i := 0; i < n; i++ {
		dst = append(dst, m.pop())
	}
	return dst, true
}

// TryGet dequeues without blocking; ok is false if the mailbox is
// empty or closed.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		return v, false
	}
	return m.pop(), true
}

// Len returns the number of queued values.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Close wakes all blocked consumers and bounded producers; queued
// values may still be drained with Get/TryGet.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
}
