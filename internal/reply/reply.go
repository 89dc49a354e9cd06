// Package reply implements the parallel reply stage shared by every
// protocol engine. Reply authentication is embarrassingly parallel:
// each reply is MAC'd under the pairwise key of one replica-client
// pair and no client observes ordering across other clients. Keeping
// it on the execution loop therefore serializes work that needs no
// serialization — with B requests per batch the exec loop pays B MAC
// computations and B sends before it may deliver the next instance.
//
// The stage shards replies across a bounded pool of workers by client
// ID. A client's replies always land in the same shard mailbox and
// each shard is drained by exactly one worker, so the per-client reply
// order the reply cache depends on is preserved while distinct clients
// proceed independently.
package reply

import (
	"runtime"
	"sync"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/telemetry"
)

// Sender is the slice of transport.Endpoint the stage needs.
type Sender interface {
	Send(to uint32, m message.Message) error
}

// Job is one reply to authenticate and send.
type Job struct {
	Client uint32
	Seq    uint64
	Result []byte
}

// Stage is the parallel reply stage of one replica.
type Stage struct {
	replica uint32
	ks      *crypto.KeyStore
	ep      Sender
	shards  []*mailbox
	wg      sync.WaitGroup

	sent *telemetry.Counter
}

// mailbox is a minimal MPSC queue of Jobs. It is not a
// cop.Mailbox[Job] because of busy: SubmitInline must see an empty
// queue and no batch in flight, and claim the shard, under the same
// lock that put and take hold.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []Job
	closed bool
	// busy counts batches taken but not yet fully sent (worker) plus
	// active inline sends. SubmitInline may only bypass the queue when
	// the shard is empty AND busy == 0 — otherwise an earlier reply
	// for the same client could still be in flight and the inline send
	// would overtake it.
	busy int
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond.L = &m.mu
	return m
}

func (m *mailbox) put(j Job) {
	m.mu.Lock()
	if !m.closed {
		m.buf = append(m.buf, j)
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// take swaps the queued jobs against spare, blocking until work
// arrives or the mailbox closes empty.
func (m *mailbox) take(spare []Job) ([]Job, bool) {
	m.mu.Lock()
	for len(m.buf) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.buf) == 0 {
		m.mu.Unlock()
		return nil, false
	}
	out := m.buf
	m.buf = spare[:0]
	m.busy++
	m.mu.Unlock()
	return out, true
}

// done marks a taken batch (or inline send) fully sent.
func (m *mailbox) done() {
	m.mu.Lock()
	m.busy--
	m.mu.Unlock()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

// NewStage starts a reply stage with the given worker count (<= 0
// picks a default scaled to the host). The stage owns the workers
// until Close.
func NewStage(replica uint32, ks *crypto.KeyStore, ep Sender, workers int, tel *telemetry.Telemetry) *Stage {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 2 {
			workers = 2
		}
		if workers > 4 {
			workers = 4
		}
	}
	s := &Stage{replica: replica, ks: ks, ep: ep, shards: make([]*mailbox, workers)}
	if tel != nil {
		s.sent = tel.Counter("hybster_reply_sent_total", "replies authenticated and sent by the reply stage")
		tel.GaugeFunc("hybster_reply_queue_depth", "replies queued across reply-stage shards",
			func() float64 {
				d := 0
				for _, sh := range s.shards {
					d += sh.depth()
				}
				return float64(d)
			})
	}
	for i := range s.shards {
		s.shards[i] = newMailbox()
		s.wg.Add(1)
		go s.run(s.shards[i])
	}
	return s
}

// Submit hands one executed reply to the stage. Calls for the same
// client land in the same shard, so a single client's replies are sent
// in submission order; distinct clients may interleave arbitrarily.
func (s *Stage) Submit(client uint32, seq uint64, result []byte) {
	s.shards[int(client)%len(s.shards)].put(Job{Client: client, Seq: seq, Result: result})
}

// SubmitInline authenticates and sends the reply on the caller's
// goroutine when the client's shard is provably quiet (queue empty,
// nothing in flight), falling back to Submit otherwise. The exec loop
// uses it for single-reply instances: an unbatched request's reply
// latency would otherwise be dominated by the worker wakeup, while
// the FIFO argument still holds — a quiet shard has no earlier reply
// the inline send could overtake, and any later reply for the same
// client is submitted by this same goroutine after it returns.
func (s *Stage) SubmitInline(client uint32, seq uint64, result []byte) {
	sh := s.shards[int(client)%len(s.shards)]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	if sh.busy > 0 || len(sh.buf) > 0 {
		sh.buf = append(sh.buf, Job{Client: client, Seq: seq, Result: result})
		sh.cond.Signal()
		sh.mu.Unlock()
		return
	}
	sh.busy++
	sh.mu.Unlock()
	s.send(Job{Client: client, Seq: seq, Result: result})
	sh.done()
	s.sent.Add(1)
}

// Close stops the stage after draining every queued reply.
func (s *Stage) Close() {
	for _, sh := range s.shards {
		sh.close()
	}
	s.wg.Wait()
}

func (s *Stage) run(mb *mailbox) {
	defer s.wg.Done()
	var spare []Job
	for {
		jobs, ok := mb.take(spare)
		if !ok {
			return
		}
		for _, j := range jobs {
			s.send(j)
		}
		mb.done()
		s.sent.Add(uint64(len(jobs)))
		spare = jobs
	}
}

func (s *Stage) send(j Job) {
	rep := &message.Reply{Replica: s.replica, Client: j.Client, Seq: j.Seq, Result: j.Result}
	rep.MAC = rep.MACUnder(s.ks.KeyFor(j.Client))
	_ = s.ep.Send(j.Client, rep)
}
