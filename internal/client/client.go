// Package client implements the BFT client: it authenticates requests
// with a group-wide MAC authenticator, sends them to its designated
// proposer (or the current leader), collects f+1 matching replies —
// the acceptance rule of §2 — and retransmits to the whole group when
// a result does not arrive in time, which also covers leader failure
// (§5.2.3 example, step 3).
package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/transport"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: closed")

// ErrTimeout is returned when a request exhausts its retries.
var ErrTimeout = errors.New("client: request timed out")

// Options configure a Client.
type Options struct {
	// Config is the replica group configuration.
	Config config.Config
	// ID is the client's node ID (>= crypto.ClientIDBase).
	ID uint32
	// Endpoint connects the client to the group.
	Endpoint transport.Endpoint
	// Timeout is the per-attempt reply timeout before retransmitting;
	// zero selects one second.
	Timeout time.Duration
	// Retries is the number of retransmissions before giving up; zero
	// selects 8.
	Retries int
}

// pending tracks one outstanding request. Its channel, timer and
// per-replica slots are allocated once and serve request after request:
// a Client keeps the records of returned requests for the next ones.
type pending struct {
	seq   uint64
	done  chan []byte // one slot; decided admits one send
	timer *time.Timer // stopped whenever the record is not in use
	// results holds each replica's verified result, indexed by replica
	// ID; an entry belongs to this request only where seen is set.
	results [][]byte
	seen    []bool
	// decided is set once the result went to done; what arrives later
	// is the surplus of the quorum and is dropped unread.
	decided bool
}

// arm starts p's stopped timer for a fresh request. go.mod is below
// 1.23, so the channel of a stopped timer may still hold a tick of the
// request that used the record before; it is drained first, or the new
// request would retransmit at once.
func (p *pending) arm(d time.Duration) {
	select {
	case <-p.timer.C:
	default:
	}
	p.timer.Reset(d)
}

// Client issues requests to a replica group. It is safe for
// concurrent use; requests from one client are sequenced by an
// internal counter.
type Client struct {
	cfg     config.Config
	id      uint32
	ep      transport.Endpoint
	ks      *crypto.KeyStore
	timeout time.Duration
	retries int

	mu     sync.Mutex
	seq    uint64
	pend   map[uint64]*pending
	free   []*pending // records of returned requests, cleared for reuse
	closed bool
	// direct reports whether a fresh request goes to the preferred
	// replica alone. A retransmission clears it (that replica is
	// likely faulty or cut off) and new requests start with a
	// multicast until the preferred replica is seen answering again:
	// a verified reply from it to a request no older than lostSeq,
	// the one whose retransmission cleared the flag. A first-attempt
	// success proves nothing — a multicast succeeds without it.
	direct  bool
	lostSeq uint64
}

// New creates a client and installs its reply handler.
func New(opts Options) (*Client, error) {
	if opts.ID < crypto.ClientIDBase {
		return nil, fmt.Errorf("client: ID %d below ClientIDBase", opts.ID)
	}
	if opts.Timeout == 0 {
		opts.Timeout = time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 8
	}
	c := &Client{
		cfg:     opts.Config,
		id:      opts.ID,
		ep:      opts.Endpoint,
		ks:      crypto.NewKeyStore(opts.ID, crypto.NewKeyFromSeed(opts.Config.KeySeed)),
		timeout: opts.Timeout,
		retries: opts.Retries,
		pend:    make(map[uint64]*pending),
		direct:  true,
	}
	c.ep.Handle(c.onMessage)
	return c, nil
}

// ID returns the client's node ID.
func (c *Client) ID() uint32 { return c.id }

// Close shuts the client down; outstanding calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	for _, p := range c.pend {
		close(p.done)
	}
	c.pend = make(map[uint64]*pending)
	c.free = nil
	c.mu.Unlock()
	_ = c.ep.Close()
}

// preferredReplica returns the replica a fresh request is sent to:
// with rotation, the client's statically assigned proposer; without,
// the assumed current leader (view 0's — retransmission reaches any
// later leader).
func (c *Client) preferredReplica() uint32 {
	if c.cfg.RotateLeader {
		return c.id % uint32(c.cfg.N)
	}
	return 0
}

// record returns a cleared pending record for seq, a recycled one when
// there is one. Called with c.mu held.
func (c *Client) record(seq uint64) *pending {
	var p *pending
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = &pending{
			done:    make(chan []byte, 1),
			timer:   time.NewTimer(time.Hour),
			results: make([][]byte, c.cfg.N),
			seen:    make([]bool, c.cfg.N),
		}
		p.timer.Stop()
	}
	p.seq = seq
	return p
}

// release retires p when its Invoke returns. The record leaves c.pend
// under c.mu before it is cleared, so a late reply, which looks its
// request up under c.mu, can no longer reach it; after Close, which
// closed p.done, it is dropped instead.
func (c *Client) release(p *pending) {
	p.timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pend, p.seq)
	if c.closed {
		return
	}
	select {
	case <-p.done: // decided after Invoke gave up
	default:
	}
	p.decided = false
	clear(p.results)
	clear(p.seen)
	c.free = append(c.free, p)
}

// Invoke submits an operation and blocks until f+1 matching replies
// arrive or retries are exhausted.
func (c *Client) Invoke(payload []byte, readOnly bool) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.seq++
	req := &message.Request{Client: c.id, Seq: c.seq, ReadOnly: readOnly, Payload: payload}
	req.Auth = crypto.NewAuthenticator(c.ks, req.Digest(), c.cfg.N)
	p := c.record(req.Seq)
	c.pend[req.Seq] = p
	direct := c.direct
	c.mu.Unlock()
	defer c.release(p)

	// The first attempt goes to the preferred replica only — unless a
	// previous request needed retransmission, in which case that
	// replica is likely faulty and we multicast right away. Every
	// retry multicasts, because the client cannot know whether a
	// faulty leader suppressed the request (§5.2.3).
	if direct {
		_ = c.ep.Send(c.preferredReplica(), req)
	} else {
		transport.Multicast(c.ep, c.cfg.N, req)
	}
	// The record's one timer serves every attempt and is stopped on
	// return: an abandoned timer stays in the runtime's heap until it
	// fires, a full timeout after the request it guarded completed.
	p.arm(c.timeout)
	for attempt := 0; attempt <= c.retries; attempt++ {
		select {
		case res, ok := <-p.done:
			if !ok {
				return nil, ErrClosed
			}
			return res, nil
		case <-p.timer.C:
			c.mu.Lock()
			if c.direct {
				c.direct, c.lostSeq = false, p.seq
			}
			c.mu.Unlock()
			transport.Multicast(c.ep, c.cfg.N, req)
			p.timer.Reset(c.timeout)
		}
	}
	return nil, fmt.Errorf("%w: seq %d after %d attempts", ErrTimeout, p.seq, c.retries+1)
}

// onMessage handles replica replies.
func (c *Client) onMessage(from uint32, m message.Message) {
	rep, ok := m.(*message.Reply)
	if !ok || rep.Client != c.id || rep.Replica != from || from >= uint32(c.cfg.N) {
		return
	}
	// Look before MACing: every request draws n replies and is decided
	// by the first f+1, so the rest are dropped for a map lookup
	// instead of an HMAC over the result. The one reply worth checking
	// without a waiting request is the preferred replica's while direct
	// mode is off — it is the evidence that turns it back on.
	c.mu.Lock()
	p := c.pend[rep.Seq]
	wanted := p != nil && !p.decided
	probe := !c.direct && from == c.preferredReplica() && rep.Seq >= c.lostSeq
	c.mu.Unlock()
	if !wanted && !probe {
		return
	}
	if !rep.MACUnder(c.ks.KeyFor(from)).Equal(rep.MAC) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.direct = true
	}
	// Looked up again by sequence number: the record seen above may have
	// been released and recycled for a later request meanwhile.
	if p = c.pend[rep.Seq]; p == nil || p.decided {
		return
	}
	p.results[from], p.seen[from] = rep.Result, true

	// Accept once f+1 replicas returned byte-identical results.
	matching := 0
	for r, seen := range p.seen {
		if seen && bytes.Equal(p.results[r], rep.Result) {
			matching++
		}
	}
	if matching >= c.cfg.F()+1 {
		p.decided = true
		p.done <- rep.Result // one slot; decided admits one send
	}
}
