// Package transport moves protocol messages between nodes (replicas and
// clients). Two implementations are provided:
//
//   - Network, an in-process simulated fabric used by tests and the
//     benchmark harness. It preserves per-link FIFO order and models
//     propagation latency, link bandwidth, probabilistic loss, and
//     network partitions. All replicas of a benchmark cluster plus its
//     clients run in one process connected by this fabric; the paper's
//     evaluation is CPU-bound (§6.2), so in-process message passing
//     preserves the relevant behaviour while the bandwidth model, which
//     charges every message its exact wire size (EstimateSize), keeps
//     payload-induced saturation (Fig. 6b) visible.
//   - TCP, a real network transport with length-prefixed frames for
//     multi-process deployments (cmd/hybster-replica).
//
// Each sender's messages reach a handler one at a time in FIFO order,
// on a goroutine that delivers that sender's stream: a TCP connection's
// read loop, or on memnet whichever goroutine holds the link's delivery
// — the link goroutine, or the sending goroutine itself when the link
// was idle on a network without a link profile. A handler may
// authenticate a message inline before handing it to an event loop:
// that delays only its own sender's stream (on memnet possibly the
// sender itself). It must not block on protocol progress: a memnet
// handler that blocks may be blocking its sender.
package transport

import (
	"errors"
	"sync"

	"hybster/internal/message"
)

// ErrClosed is returned when sending through a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownNode is returned when the destination is not registered.
var ErrUnknownNode = errors.New("transport: unknown node")

// Handler consumes an inbound message on the goroutine delivering the
// sender's stream, which on memnet may be the sender's own (see the
// package comment for what it may do there).
// Implementations must not retain the message past mutation; messages
// are immutable by convention.
type Handler func(from uint32, m message.Message)

// Endpoint is one node's attachment to a transport.
type Endpoint interface {
	// ID returns the node ID of this endpoint.
	ID() uint32
	// Handle installs the inbound message handler. It must be called
	// before the first message arrives.
	Handle(h Handler)
	// Send delivers m to node "to", per-destination FIFO. Delivery
	// is asynchronous, except that memnet without a link profile runs
	// the handler before Send returns when the link is idle; a caller
	// must not hold a lock the destination's handler may take. Errors
	// report local conditions only (closed endpoint, unknown
	// destination).
	Send(to uint32, m message.Message) error
	// Close detaches the endpoint; pending messages may be dropped.
	Close() error
}

// Multicaster is an optional endpoint capability: delivering one
// message to many destinations with shared per-broadcast work. The TCP
// endpoint marshals and frames the message once and enqueues the same
// immutable byte slice on every peer link; endpoints without the
// capability fall back to per-destination Send.
type Multicaster interface {
	// Multicast delivers m to every node in dests. Like Send, delivery
	// is per-destination FIFO and best effort, and asynchronous except
	// over an idle memnet link.
	Multicast(dests []uint32, m message.Message)
}

// multicastDests caches the [0,n)\{self} destination list per (self, n)
// so the steady-state broadcast path does not allocate it every call.
var multicastDests struct {
	mu    sync.Mutex
	cache map[uint64][]uint32
}

func destsFor(self uint32, n int) []uint32 {
	key := uint64(self)<<32 | uint64(uint32(n))
	multicastDests.mu.Lock()
	defer multicastDests.mu.Unlock()
	if d, ok := multicastDests.cache[key]; ok {
		return d
	}
	d := make([]uint32, 0, n-1)
	for r := uint32(0); int(r) < n; r++ {
		if r != self {
			d = append(d, r)
		}
	}
	if multicastDests.cache == nil {
		multicastDests.cache = make(map[uint64][]uint32)
	}
	multicastDests.cache[key] = d
	return d
}

// Multicast sends m to every replica in [0, n) except the endpoint
// itself. When the endpoint implements Multicaster the broadcast is
// handed over whole, so the transport can marshal the message once for
// all destinations; otherwise it degrades to per-destination Send.
func Multicast(ep Endpoint, n int, m message.Message) {
	// Warm the digest cache on the sender's goroutine: the in-process
	// fabric shares the message pointer with every receiver, so the
	// digest is computed once per broadcast instead of once per replica.
	message.PrecomputeDigest(m)
	if mc, ok := ep.(Multicaster); ok {
		mc.Multicast(destsFor(ep.ID(), n), m)
		return
	}
	for r := uint32(0); int(r) < n; r++ {
		if r == ep.ID() {
			continue
		}
		_ = ep.Send(r, m) // best effort; the protocols tolerate loss
	}
}

// EstimateSize returns the exact number of bytes message.Marshal would
// produce for m, without marshaling: the codec's own field walk in its
// counting mode. It is no longer an estimate; the name stays because
// benchmark/ compiles against it. The in-process fabric charges it to
// the bandwidth model.
func EstimateSize(m message.Message) int { return 1 + message.WireSize(m) }
