package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/cop"
	"hybster/internal/message"
)

// LinkProfile describes the simulated characteristics of every link in
// an in-process Network. The zero profile is an ideal network with
// unlimited bandwidth. Per-link drops and delays are fault injection's
// (FaultyEndpoint), which seeds them.
type LinkProfile struct {
	// Bandwidth is the link capacity in bytes per second; 0 means
	// unlimited. A message occupies its link for its exact wire size
	// (EstimateSize) and transmissions on one link serialize, so large
	// messages delay subsequent ones (the Fig. 6b effect).
	Bandwidth int64
}

// Network is the in-process message fabric. Nodes register endpoints by
// ID; every (source, destination) pair gets a dedicated FIFO link — a
// cop.Mailbox drained in batches by the link's own goroutine.
//
// On a network with the zero profile a Send over an idle link — nothing
// queued, no delivery in progress — runs the destination handler on the
// sender's goroutine instead: the profile has nothing to model, and a
// message then crosses the fabric without waking the link goroutine.
// Anything else queues to the link goroutine. The link's delivery lock
// is held by whichever goroutine delivers, so deliveries of one link
// never overlap and keep FIFO order; a Send only ever tries that lock
// (a busy link queues), so handlers that send to each other cannot
// deadlock.
//
// Nothing on the send or delivery path is shared between links: a Send
// reads the current routing snapshot with one atomic load and delivers
// or puts the message into the link's mailbox; the delivering goroutine
// resolves the destination handler through two more atomic loads. Only
// the rare mutators (Endpoint, Partition/Heal*/Isolate, link creation,
// Close) take mu, and they publish a fresh snapshot instead of editing
// one that senders may be reading.
type Network struct {
	profile LinkProfile
	inline  bool // the zero profile: an idle link delivers on its sender's goroutine

	routes atomic.Pointer[routes]

	mu    sync.Mutex // serializes mutators; sends over an existing link and deliveries never take it
	nodes map[uint32]*memEndpoint
}

// routes is one immutable routing snapshot. A mutator copies the map it
// changes and shares the other.
type routes struct {
	links  map[[2]uint32]*link // (src, dst) → link; a link exists only to a registered dst
	cut    map[[2]uint32]bool  // (src, dst) pairs whose new sends are dropped
	closed bool
}

// NewNetwork creates an in-process network in which every link has the
// given profile.
func NewNetwork(profile LinkProfile) *Network {
	n := &Network{profile: profile, inline: profile == LinkProfile{}, nodes: make(map[uint32]*memEndpoint)}
	n.routes.Store(&routes{})
	return n
}

// linkQueueDepth bounds in-flight messages per link; senders block when
// a link is saturated, providing natural backpressure. The mailbox
// behind a link grows on demand and shrinks back when it drains, so an
// idle link holds a 16-slot ring, not the bound.
const linkQueueDepth = 8192

// linkBatch is the most messages a link goroutine takes out of its
// mailbox under one lock acquisition.
const linkBatch = 64

type link struct {
	src, dst uint32
	q        *cop.Mailbox[message.Message]
	// deliver is held around every handler call of the link, on the
	// link goroutine or on an inline sender; pending counts messages
	// accepted into q and not yet delivered. Together they make a link
	// idle: pending is 0 and deliver is free.
	deliver sync.Mutex
	pending atomic.Int64
	// to is the endpoint currently registered as dst; Endpoint swaps
	// it when the node is replaced.
	to atomic.Pointer[memEndpoint]
}

type memEndpoint struct {
	net *Network
	id  uint32

	mu      sync.Mutex // orders Handle against Close
	handler atomic.Pointer[Handler]
	closed  atomic.Bool
}

// Endpoint registers node id on the network and returns its endpoint.
// Registering an existing ID replaces the previous endpoint (supporting
// crash-restart); the replaced endpoint is closed so in-flight link
// deliveries cannot reach a stale handler.
func (n *Network) Endpoint(id uint32) Endpoint {
	ep := &memEndpoint{net: n, id: id}
	n.mu.Lock()
	old := n.nodes[id]
	n.nodes[id] = ep
	for _, l := range n.routes.Load().links {
		if l.dst == id {
			l.to.Store(ep)
		}
	}
	n.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return ep
}

// editCut publishes a snapshot whose cut set is edit applied to a copy
// of the current one.
func (n *Network) editCut(edit func(cut map[[2]uint32]bool)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.routes.Load()
	cut := make(map[[2]uint32]bool, len(cur.cut)+2)
	for k := range cur.cut {
		cut[k] = true
	}
	edit(cut)
	n.routes.Store(&routes{links: cur.links, cut: cut, closed: cur.closed})
}

// Partition cuts both directions between nodes a and b. Messages in
// flight are still delivered; new sends are dropped silently, like on a
// real partitioned network.
func (n *Network) Partition(a, b uint32) {
	n.editCut(func(cut map[[2]uint32]bool) {
		cut[[2]uint32{a, b}] = true
		cut[[2]uint32{b, a}] = true
	})
}

// Isolate cuts node a off from every currently registered node.
func (n *Network) Isolate(a uint32) {
	n.editCut(func(cut map[[2]uint32]bool) {
		for id := range n.nodes {
			if id != a {
				cut[[2]uint32{a, id}] = true
				cut[[2]uint32{id, a}] = true
			}
		}
	})
}

// HealNode removes every partition involving node a, undoing a prior
// Isolate without touching partitions between other node pairs.
func (n *Network) HealNode(a uint32) {
	n.editCut(func(cut map[[2]uint32]bool) {
		for key := range cut {
			if key[0] == a || key[1] == a {
				delete(cut, key)
			}
		}
	})
}

// Heal removes the partition between a and b.
func (n *Network) Heal(a, b uint32) {
	n.editCut(func(cut map[[2]uint32]bool) {
		delete(cut, [2]uint32{a, b})
		delete(cut, [2]uint32{b, a})
	})
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.editCut(func(cut map[[2]uint32]bool) { clear(cut) })
}

// Close shuts the network down: later sends fail with ErrClosed,
// senders blocked at a link's bound are released with the same error,
// and every link goroutine exits.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.routes.Load()
	if cur.closed {
		return
	}
	n.routes.Store(&routes{closed: true})
	for _, l := range cur.links {
		l.q.Close()
	}
}

// addLink creates the FIFO link src→dst for the first send between the
// pair. A nil link with a nil error means the send is to be dropped.
func (n *Network) addLink(src, dst uint32) (*link, error) {
	key := [2]uint32{src, dst}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.routes.Load()
	if cur.closed {
		return nil, ErrClosed
	}
	if l := cur.links[key]; l != nil {
		return l, nil
	}
	to := n.nodes[dst]
	if to == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}
	if cur.cut[key] {
		return nil, nil
	}
	l := &link{src: src, dst: dst, q: cop.NewMailbox[message.Message]()}
	l.to.Store(to)
	links := make(map[[2]uint32]*link, len(cur.links)+1)
	for k, v := range cur.links {
		links[k] = v
	}
	links[key] = l
	n.routes.Store(&routes{links: links, cut: cur.cut})
	go n.runLink(l)
	return l, nil
}

// runLink drives one link: applies the bandwidth, then delivers to the
// destination handler in FIFO order. Everything queued
// is taken out under one lock round-trip and one wake-up, and delivered
// under the link's delivery lock; the batch stops counting as pending
// only once the lock is released, so no inline Send overtakes it.
func (n *Network) runLink(l *link) {
	batch := make([]message.Message, 0, linkBatch)
	for {
		var ok bool
		batch, ok = l.q.GetBatch(batch[:0])
		if !ok || n.routes.Load().closed {
			return
		}
		l.deliver.Lock()
		for i, m := range batch {
			batch[i] = nil // the handler owns m now; do not pin it for the GC
			if n.profile.Bandwidth > 0 {
				tx := time.Duration(float64(EstimateSize(m)) / float64(n.profile.Bandwidth) * float64(time.Second))
				time.Sleep(tx)
			}
			l.handle(m)
		}
		l.deliver.Unlock()
		l.pending.Add(-int64(len(batch)))
	}
}

// handle delivers m to the endpoint currently registered as the link's
// destination, resolved per message so a replaced or closed endpoint's
// handler is never entered again. Caller holds l.deliver.
func (l *link) handle(m message.Message) {
	if h := l.to.Load().handler.Load(); h != nil {
		(*h)(l.src, m)
	}
}

// tryInline delivers m on the calling goroutine if the link is idle and
// reports whether it did. It never waits for the delivery lock: the
// caller may itself be a handler holding another link's lock (or this
// one's, further up its stack), and two handlers sending to each other
// would each wait for the lock the other holds.
func (l *link) tryInline(m message.Message) bool {
	if l.pending.Load() != 0 || !l.deliver.TryLock() {
		return false
	}
	// Re-checked under the lock: a batch taken out before it was
	// acquired still counts as pending and must be delivered first.
	idle := l.pending.Load() == 0
	if idle {
		l.handle(m)
	}
	l.deliver.Unlock()
	return idle
}

// ID implements Endpoint.
func (ep *memEndpoint) ID() uint32 { return ep.id }

// Handle implements Endpoint.
func (ep *memEndpoint) Handle(h Handler) {
	ep.mu.Lock()
	if !ep.closed.Load() {
		ep.handler.Store(&h)
	}
	ep.mu.Unlock()
}

// Send implements Endpoint.
func (ep *memEndpoint) Send(to uint32, m message.Message) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	key := [2]uint32{ep.id, to}
	r := ep.net.routes.Load()
	l := r.links[key]
	if l == nil {
		var err error
		if l, err = ep.net.addLink(ep.id, to); l == nil {
			return err
		}
	} else if len(r.cut) > 0 && r.cut[key] {
		return nil // silently dropped, like a real partition
	}
	if ep.net.inline && l.tryInline(m) {
		return nil
	}
	l.pending.Add(1)
	if !l.q.PutBounded(m, linkQueueDepth) {
		l.pending.Add(-1)
		return ErrClosed
	}
	return nil
}

// Multicast implements Multicaster. The in-process fabric passes
// message pointers — there is no marshal to share — so the broadcast
// degenerates to per-destination sends; implementing the capability
// here keeps wrapper transports (FaultyEndpoint) able to forward whole
// broadcasts without changing delivery semantics.
func (ep *memEndpoint) Multicast(dests []uint32, m message.Message) {
	for _, to := range dests {
		_ = ep.Send(to, m) // best effort; the protocols tolerate loss
	}
}

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.mu.Lock()
	ep.closed.Store(true)
	ep.handler.Store(nil)
	ep.mu.Unlock()
	return nil
}
