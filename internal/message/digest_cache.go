package message

import (
	"sync/atomic"

	"hybster/internal/crypto"
)

// digestCache memoizes a message digest inside the message struct.
//
// The caching contract is the package's immutability convention made
// load-bearing: a message must not be mutated after its digest has
// been computed (for senders, that is the moment it is certified; for
// receivers, the moment it is verified). Under that contract the cache
// never needs invalidation. Concurrent Digest calls are safe — the
// in-process transport shares message pointers between replicas — via
// a tiny state machine on an atomically accessed word:
//
//	0 = empty, 1 = a writer is filling d, 2 = d is valid
//
// Exactly one caller wins the 0→1 CAS and publishes its result with a
// release-store of 2; every caller that loses (or observes state 1)
// simply returns its own computation. The fields are deliberately
// plain (no sync/atomic struct types) so that pre-existing by-value
// copies of message structs stay vet-clean; a copy taken before the
// first Digest call behaves like a fresh cache.
type digestCache struct {
	state uint32 // accessed atomically
	d     crypto.Digest
}

// cached returns the memoized digest, if one has been published.
func (c *digestCache) cached() (crypto.Digest, bool) {
	if atomic.LoadUint32(&c.state) == 2 {
		return c.d, true
	}
	return crypto.Digest{}, false
}

// fill publishes d as the memoized digest (first writer wins) and
// returns it.
func (c *digestCache) fill(d crypto.Digest) crypto.Digest {
	if atomic.CompareAndSwapUint32(&c.state, 0, 1) {
		c.d = d
		atomic.StoreUint32(&c.state, 2)
	}
	return d
}

// PrecomputeDigest computes and caches the digest (and batch digest,
// for proposal messages) of m on the caller's goroutine. Senders call
// it once, after fully populating a message and before handing it to
// the transport, so that the cost is paid off the receivers' critical
// path and concurrent receivers of a shared in-process message hit a
// warm cache. Message types without a digest are ignored.
func PrecomputeDigest(m Message) {
	switch v := m.(type) {
	case *Request:
		_ = v.Digest()
	case *Prepare:
		_ = v.BatchDigest()
		_ = v.Digest()
	case *Commit:
		_ = v.Digest()
	case *Checkpoint:
		_ = v.Digest()
	case *ViewChange:
		_ = v.Digest()
	case *NewView:
		_ = v.Digest()
	case *NewViewAck:
		_ = v.Digest()
	case *PrePrepare:
		_ = v.BatchDigest()
		_ = v.Digest()
	case *PBFTPrepare:
		_ = v.Digest()
	case *PBFTCommit:
		_ = v.Digest()
	case *PBFTCheckpoint:
		_ = v.Digest()
	case *PBFTViewChange:
		_ = v.Digest()
	case *PBFTNewView:
		_ = v.Digest()
	case *MinPrepare:
		_ = v.BatchDigest()
		_ = v.Digest()
	case *MinCommit:
		_ = v.Digest()
	case *Suspect:
		_ = v.Digest()
	case *MinViewChange:
		_ = v.Digest()
	case *MinNewView:
		_ = v.Digest()
	}
}
