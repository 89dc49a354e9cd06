// Package trace records what the benchmark's own wrappers see at the
// seams of the replication stack — the Invoke call, every
// transport.Endpoint, and the Application — and turns the stamps of
// one request into a tree of spans whose self times reconcile with the
// client-observed latency. Nothing in here runs inside the program
// under test: every stamp is taken in benchmark code around a call into
// a layer.
package trace

import (
	"sync"
	"time"
)

// Kind says at which seam a stamp was taken.
type Kind uint8

// The stamps of one request, in causal order.
const (
	// InvokeStart: the load generator is about to call Invoke.
	InvokeStart Kind = iota
	// ClientSend: the client handed the authenticated request to its
	// endpoint's Send (first transmission only).
	ClientSend
	// RequestRecv: a replica's handler was called with the request.
	RequestRecv
	// Propose: a replica handed a Prepare/PrePrepare carrying the
	// request to its endpoint.
	Propose
	// ExecStart, ExecEnd: a replica's Application.Execute ran it.
	ExecStart
	ExecEnd
	// ReplySend: a replica handed the request's reply to its endpoint.
	ReplySend
	// QuorumRecv: the client's handler was called with the reply that
	// completed f+1; Node is the replica that sent it.
	QuorumRecv
	// InvokeEnd: Invoke returned.
	InvokeEnd
)

// ReqID names a request across all seams.
type ReqID struct {
	Client uint32
	Seq    uint64
}

// Event is one stamp. T is nanoseconds since the recorder's epoch; Node
// is the replica the stamp was taken at (or, for QuorumRecv, about).
type Event struct {
	Kind Kind
	Node uint32
	Req  ReqID
	T    int64
}

// Recorder keeps the events of the sampled requests in memory until
// the run ends. It is safe for concurrent use; contention is bounded by
// sampling (1 in Every requests) rather than by sharding.
type Recorder struct {
	epoch time.Time
	every uint64
	salt  uint64

	mu     sync.Mutex
	events []Event
}

// NewRecorder traces one in `every` requests, chosen by a hash of the
// request id and seed so that every seam agrees on the choice without
// talking to the others.
func NewRecorder(seed int64, every int) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{epoch: time.Now(), every: uint64(every), salt: uint64(seed)*0x9e3779b97f4a7c15 + 1}
}

// Sampled reports whether request id is traced.
func (r *Recorder) Sampled(id ReqID) bool {
	x := (uint64(id.Client)<<40 ^ id.Seq) * r.salt
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x%r.every == 0
}

// Now is the recorder's clock: nanoseconds since its epoch.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// Add stores events (the caller has already checked Sampled).
func (r *Recorder) Add(evs ...Event) {
	r.mu.Lock()
	r.events = append(r.events, evs...)
	r.mu.Unlock()
}

// Events returns everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
