package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"hybster/benchmark/trace"
	"hybster/internal/client"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
)

// This file holds the benchmark-owned wrappers at the three seams the
// traced run observes from outside: transport.Endpoint (replicas and
// clients), statemachine.Application, and the Invoke call.

// netCounts is what one endpoint wrapper counts. Every endpoint has its
// own (a counter shared by all replicas' goroutines would make tracing
// cost cache misses the untraced system does not have).
type netCounts struct {
	msgs, bytes atomic.Uint64
	// protocol counts replica-to-replica deliveries (everything but
	// requests and replies): each costs the receiver one mailbox hop.
	protocol atomic.Uint64
}

func (n *netCounts) add(m message.Message, dests int) {
	n.msgs.Add(uint64(dests))
	n.bytes.Add(uint64(dests * transport.EstimateSize(m)))
	switch m.(type) {
	case *message.Request, *message.Reply:
	default:
		n.protocol.Add(uint64(dests))
	}
}

// execSlot is the last Execute a replica ran for one client. The reply
// wrapper consumes it to learn when the request it answers executed:
// Execute sees no sequence number, but a client has one request
// outstanding, so the Execute before a reply to (client, seq) is that
// request's. A reply served from the reply cache finds the slot spent.
type execSlot struct {
	mu         sync.Mutex
	start, end int64
	fresh      bool
}

// seams is the shared state of one traced run's wrappers.
type seams struct {
	rec *trace.Recorder
	f   int
	// endpoints lists every wrapper made, for totals.
	mu        sync.Mutex
	endpoints []*tracedEndpoint
	// exec[replica][client index] — survives a replica's restart.
	exec [][]execSlot
}

func newSeams(rec *trace.Recorder, n, f, clients int) *seams {
	s := &seams{rec: rec, f: f, exec: make([][]execSlot, n)}
	for r := range s.exec {
		s.exec[r] = make([]execSlot, clients)
	}
	return s
}

// netTotals sums the endpoints' counters.
func (s *seams) netTotals() (msgs, bytes, protocol uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.endpoints {
		msgs += t.counts.msgs.Load()
		bytes += t.counts.bytes.Load()
		protocol += t.counts.protocol.Load()
	}
	return
}

func clientIndex(id uint32) int { return int(id - crypto.ClientIDBase) }

// tracedEndpoint decorates an endpoint. It forwards Multicast whole so
// that marshal-once fan-out on TCP stays in effect under tracing.
type tracedEndpoint struct {
	transport.Endpoint
	mc     transport.Multicaster
	s      *seams
	counts netCounts
	// quorum tracks, for a client endpoint, the replies to the request
	// in flight (nil on replica endpoints).
	quorum *quorumTracker
}

type quorumTracker struct {
	mu   sync.Mutex
	seq  uint64
	seen uint64 // bitmask of replicas heard for seq
	n    int
}

// wrapEndpoint decorates ep; forClient selects the client-side stamps.
func (s *seams) wrapEndpoint(ep transport.Endpoint, forClient bool) (transport.Endpoint, error) {
	mc, ok := ep.(transport.Multicaster)
	if !ok {
		// Adding the capability would change how the engine fans out.
		return nil, fmt.Errorf("benchmark: endpoint %T is not a Multicaster", ep)
	}
	t := &tracedEndpoint{Endpoint: ep, mc: mc, s: s}
	if forClient {
		t.quorum = &quorumTracker{}
	}
	s.mu.Lock()
	s.endpoints = append(s.endpoints, t)
	s.mu.Unlock()
	return t, nil
}

func (t *tracedEndpoint) Send(to uint32, m message.Message) error {
	t.stampOut(m, 1)
	return t.Endpoint.Send(to, m)
}

func (t *tracedEndpoint) Multicast(dests []uint32, m message.Message) {
	t.stampOut(m, len(dests))
	t.mc.Multicast(dests, m)
}

func (t *tracedEndpoint) Handle(h transport.Handler) {
	t.Endpoint.Handle(func(from uint32, m message.Message) {
		t.stampIn(from, m)
		h(from, m)
	})
}

func (t *tracedEndpoint) stampOut(m message.Message, dests int) {
	t.counts.add(m, dests)
	rec := t.s.rec
	switch v := m.(type) {
	case *message.Request:
		// From a client: the first transmission. From a follower: a
		// relay to the leader, which is not a stage boundary.
		if t.quorum != nil {
			if id := (trace.ReqID{Client: v.Client, Seq: v.Seq}); rec.Sampled(id) {
				rec.Add(trace.Event{Kind: trace.ClientSend, Req: id, T: rec.Now()})
			}
		}
	case *message.Prepare:
		t.stampProposal(v.Requests)
	case *message.PrePrepare:
		t.stampProposal(v.Requests)
	case *message.Reply:
		id := trace.ReqID{Client: v.Client, Seq: v.Seq}
		if !rec.Sampled(id) {
			return
		}
		now := rec.Now()
		node := t.ID()
		evs := []trace.Event{{Kind: trace.ReplySend, Node: node, Req: id, T: now}}
		if ci := clientIndex(v.Client); ci >= 0 && ci < len(t.s.exec[node]) {
			slot := &t.s.exec[node][ci]
			slot.mu.Lock()
			if slot.fresh {
				slot.fresh = false
				evs = append(evs,
					trace.Event{Kind: trace.ExecStart, Node: node, Req: id, T: slot.start},
					trace.Event{Kind: trace.ExecEnd, Node: node, Req: id, T: slot.end})
			}
			slot.mu.Unlock()
		}
		rec.Add(evs...)
	}
}

func (t *tracedEndpoint) stampProposal(reqs []*message.Request) {
	rec := t.s.rec
	now := rec.Now()
	for _, r := range reqs {
		if id := (trace.ReqID{Client: r.Client, Seq: r.Seq}); rec.Sampled(id) {
			rec.Add(trace.Event{Kind: trace.Propose, Node: t.ID(), Req: id, T: now})
		}
	}
}

func (t *tracedEndpoint) stampIn(from uint32, m message.Message) {
	rec := t.s.rec
	switch v := m.(type) {
	case *message.Request:
		if t.quorum == nil {
			if id := (trace.ReqID{Client: v.Client, Seq: v.Seq}); rec.Sampled(id) {
				rec.Add(trace.Event{Kind: trace.RequestRecv, Node: t.ID(), Req: id, T: rec.Now()})
			}
		}
	case *message.Reply:
		q := t.quorum
		if q == nil || v.Client != t.ID() || from >= 64 {
			return
		}
		id := trace.ReqID{Client: v.Client, Seq: v.Seq}
		if !rec.Sampled(id) {
			return
		}
		// The reply handler runs on one goroutine per link.
		q.mu.Lock()
		if v.Seq > q.seq {
			q.seq, q.seen, q.n = v.Seq, 0, 0
		}
		completes := false
		if v.Seq == q.seq && q.seen&(1<<from) == 0 {
			q.seen |= 1 << from
			q.n++
			completes = q.n == t.s.f+1
		}
		q.mu.Unlock()
		if completes {
			rec.Add(trace.Event{Kind: trace.QuorumRecv, Node: from, Req: id, T: rec.Now()})
		}
	}
}

// invoker is the Invoke seam of one logical client. Only its owner
// goroutine calls it, so calls equals the sequence number the client
// assigned to the request in flight.
type invoker struct {
	cl    *client.Client
	calls uint64
	rec   *trace.Recorder // nil when untraced
}

func (iv *invoker) invoke(payload []byte) ([]byte, error) {
	iv.calls++
	if iv.rec == nil {
		return iv.cl.Invoke(payload, false)
	}
	id := trace.ReqID{Client: iv.cl.ID(), Seq: iv.calls}
	start := iv.rec.Now()
	res, err := iv.cl.Invoke(payload, false)
	if end := iv.rec.Now(); err == nil && iv.rec.Sampled(id) {
		iv.rec.Add(trace.Event{Kind: trace.InvokeStart, Req: id, T: start},
			trace.Event{Kind: trace.InvokeEnd, Req: id, T: end})
	}
	return res, err
}

// chainMarks are the hash-chain values one replica reached at every
// markEvery-th execution, kept across its restarts: a recovered replica
// that replays its log must reproduce the marks it made before.
type chainMarks struct {
	mu       sync.Mutex
	at       map[uint64]uint64
	last     uint64 // highest execution count reached
	diverged string // first self-disagreement, "" if none
}

const markEvery = 64

// chainApp wraps the replicated application of one replica. It chains a
// hash over the (client, payload) sequence Execute is called with and
// makes count and chain part of the snapshot, so that the chain
// survives checkpoints, log replay and state transfer exactly as the
// application state does; replicas that executed the same sequence hold
// the same chain value at the same count. With a seam attached it also
// times every Execute.
type chainApp struct {
	inner  statemachine.Application
	viewer statemachine.SnapshotViewer // inner, if it has the capability
	marks  *chainMarks
	slots  []execSlot      // nil when untraced
	rec    *trace.Recorder // nil when untraced

	mu    sync.Mutex
	count uint64
	chain uint64
}

// chainViewApp is a chainApp over an application with SnapshotView;
// forwarding the capability keeps checkpoint snapshots off the exec
// loop as they are without the wrapper.
type chainViewApp struct{ *chainApp }

func (a chainViewApp) SnapshotView() func() []byte {
	a.mu.Lock()
	head := a.header()
	view := a.viewer.SnapshotView()
	a.mu.Unlock()
	return func() []byte { return append(head, view()...) }
}

func newChainApp(inner statemachine.Application, marks *chainMarks, s *seams, replica uint32) statemachine.Application {
	a := &chainApp{inner: inner, marks: marks}
	if s != nil {
		a.slots, a.rec = s.exec[replica], s.rec
	}
	if v, ok := inner.(statemachine.SnapshotViewer); ok {
		a.viewer = v
		return chainViewApp{a}
	}
	return a
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (a *chainApp) Execute(client uint32, payload []byte, readOnly bool) []byte {
	var start int64
	if a.rec != nil {
		start = a.rec.Now()
	}
	res := a.inner.Execute(client, payload, readOnly)
	if a.rec != nil {
		if ci := clientIndex(client); ci >= 0 && ci < len(a.slots) {
			slot := &a.slots[ci]
			end := a.rec.Now()
			slot.mu.Lock()
			slot.start, slot.end, slot.fresh = start, end, true
			slot.mu.Unlock()
		}
	}

	a.mu.Lock()
	a.count++
	x := a.chain ^ uint64(client)<<32 ^ uint64(len(payload))<<8 ^ uint64(crc32.Checksum(payload, castagnoli))
	x *= 0x9e3779b97f4a7c15
	a.chain = x ^ x>>31
	count, chain := a.count, a.chain
	a.mu.Unlock()

	m := a.marks
	m.mu.Lock()
	if count > m.last {
		m.last = count
	}
	if count%markEvery == 0 {
		if prev, ok := m.at[count]; ok && prev != chain && m.diverged == "" {
			m.diverged = fmt.Sprintf("execution %d: chain %x now, %x before the restart", count, chain, prev)
		}
		m.at[count] = chain
	}
	m.mu.Unlock()
	return res
}

func (a *chainApp) header() []byte {
	head := make([]byte, 16, 32)
	binary.BigEndian.PutUint64(head[0:8], a.count)
	binary.BigEndian.PutUint64(head[8:16], a.chain)
	return head
}

func (a *chainApp) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append(a.header(), a.inner.Snapshot()...)
}

func (a *chainApp) Restore(snapshot []byte) error {
	if len(snapshot) < 16 {
		return fmt.Errorf("benchmark: snapshot of %d bytes lacks the chain header", len(snapshot))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.count = binary.BigEndian.Uint64(snapshot[0:8])
	a.chain = binary.BigEndian.Uint64(snapshot[8:16])
	return a.inner.Restore(snapshot[16:])
}

// checkAgreement requires every pair of replicas to hold the same chain
// value wherever both marked one, no replica to contradict its own
// earlier marks, and the most advanced replica to have executed at
// least `acked` operations (each acknowledged operation was executed
// exactly once by f+1 replicas; none may be missing).
func checkAgreement(marks []*chainMarks, acked uint64) error {
	var most uint64
	for r, m := range marks {
		m.mu.Lock()
		if m.diverged != "" {
			m.mu.Unlock()
			return fmt.Errorf("replica %d disagrees with itself: %s", r, m.diverged)
		}
		if m.last > most {
			most = m.last
		}
		m.mu.Unlock()
	}
	for r := 1; r < len(marks); r++ {
		for count, chain := range marks[r].at {
			for o := 0; o < r; o++ {
				if other, ok := marks[o].at[count]; ok && other != chain {
					return fmt.Errorf("replicas %d and %d diverge at execution %d: chains %x vs %x", o, r, count, other, chain)
				}
			}
		}
	}
	if most < acked {
		return fmt.Errorf("%d operations were acknowledged but the most advanced replica executed %d", acked, most)
	}
	return nil
}
