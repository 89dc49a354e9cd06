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

// pending tracks one outstanding request.
type pending struct {
	seq     uint64
	done    chan []byte
	replies map[uint32][]byte // replica -> result
	// decided is set once the result went to done; what arrives later
	// is the surplus of the quorum and is dropped unread.
	decided bool
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
	p := &pending{seq: req.Seq, done: make(chan []byte, 1), replies: make(map[uint32][]byte)}
	c.pend[req.Seq] = p
	direct := c.direct
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.pend, p.seq)
		c.mu.Unlock()
	}()

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
	// One timer serves every attempt and is stopped on return: an
	// abandoned timer stays in the runtime's heap until it fires, a
	// full timeout after the request it guarded completed.
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	for attempt := 0; attempt <= c.retries; attempt++ {
		select {
		case res, ok := <-p.done:
			if !ok {
				return nil, ErrClosed
			}
			return res, nil
		case <-timer.C:
			c.mu.Lock()
			if c.direct {
				c.direct, c.lostSeq = false, p.seq
			}
			c.mu.Unlock()
			transport.Multicast(c.ep, c.cfg.N, req)
			timer.Reset(c.timeout)
		}
	}
	return nil, fmt.Errorf("%w: seq %d after %d attempts", ErrTimeout, p.seq, c.retries+1)
}

// onMessage handles replica replies.
func (c *Client) onMessage(from uint32, m message.Message) {
	rep, ok := m.(*message.Reply)
	if !ok || rep.Client != c.id || rep.Replica != from {
		return
	}
	// Look before hashing: every request draws n replies and is decided
	// by the first f+1, so the rest are dropped for a map lookup
	// instead of a digest over the result plus an HMAC. The one reply
	// worth checking without a waiting request is the preferred
	// replica's while direct mode is off — it is the evidence that
	// turns it back on.
	c.mu.Lock()
	p := c.pend[rep.Seq]
	wanted := p != nil && !p.decided
	probe := !c.direct && from == c.preferredReplica() && rep.Seq >= c.lostSeq
	c.mu.Unlock()
	if !wanted && !probe {
		return
	}
	d := rep.Digest()
	if !c.ks.KeyFor(from).Verify(d[:], rep.MAC) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.direct = true
	}
	if p = c.pend[rep.Seq]; p == nil || p.decided {
		return
	}
	p.replies[from] = rep.Result

	// Accept once f+1 replicas returned byte-identical results.
	matching := 0
	for _, other := range p.replies {
		if bytes.Equal(other, rep.Result) {
			matching++
		}
	}
	if matching >= c.cfg.F()+1 {
		p.decided = true
		p.done <- rep.Result // buffered; decided admits one send
	}
}
