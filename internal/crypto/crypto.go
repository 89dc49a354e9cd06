// Package crypto provides the cryptographic primitives shared by all
// protocol implementations in this repository: SHA-256 digests, HMAC-based
// message authentication, key management for a replica group, and
// PBFT-style MAC authenticators (a vector of per-receiver MACs).
//
// On amd64 CPUs with the SHA extensions every digest and MAC runs one
// SHA-256 block kernel (sha256block_amd64.s) on the caller's stack, an
// HMAC starting from precomputed midstates; elsewhere, and with the
// purego build tag, the package uses crypto/sha256 and crypto/hmac. The
// bytes are the same either way. The package deliberately exposes small
// value types so that protocol code can embed digests and MACs in
// messages without extra allocation.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
	"sync/atomic"
)

// DigestSize is the size of a message digest in bytes (SHA-256).
const DigestSize = sha256.Size

// MACSize is the size of a message authentication code in bytes.
// MACs are HMAC-SHA256 outputs.
const MACSize = sha256.Size

// Digest is a SHA-256 hash of a message or state snapshot.
type Digest [DigestSize]byte

// ZeroDigest is the all-zero digest, used for empty state and no-op
// consensus instances.
var ZeroDigest Digest

// Hash computes the SHA-256 digest of data.
func Hash(data []byte) Digest {
	if !useKernel {
		return sha256.Sum256(data)
	}
	var s stream
	s.h = iv
	s.write(data)
	return s.sum()
}

// HashParts computes the SHA-256 digest over the concatenation of parts
// without materializing the concatenation.
func HashParts(parts ...[]byte) Digest {
	h := NewHasher()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum()
}

// Combine folds two digests into one. It is used to chain state digests
// with reply-vector digests for checkpoint proofs.
func Combine(a, b Digest) Digest {
	var ab [2 * DigestSize]byte
	copy(ab[:], a[:])
	copy(ab[DigestSize:], b[:])
	return Hash(ab[:])
}

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// String returns a short hexadecimal prefix of the digest for logging.
func (d Digest) String() string { return hex.EncodeToString(d[:8]) }

// MAC is an HMAC-SHA256 authentication code.
type MAC [MACSize]byte

// IsZero reports whether m is the all-zero MAC.
func (m MAC) IsZero() bool { return m == MAC{} }

// String returns a short hexadecimal prefix of the MAC for logging.
func (m MAC) String() string { return hex.EncodeToString(m[:8]) }

// Key is a symmetric key used for HMAC computation.
type Key []byte

// NewKeyFromSeed derives a deterministic key from a textual seed. It is
// used by tests and the in-process cluster harness; deployments load keys
// from configuration.
func NewKeyFromSeed(seed string) Key {
	d := sha256.Sum256([]byte("hybster-key:" + seed))
	return Key(d[:])
}

// Sum computes the HMAC-SHA256 of data under key k. Code that MACs
// under one key repeatedly binds a MACKey.
func (k Key) Sum(data []byte) MAC {
	return k.SumParts(data)
}

// SumParts computes the HMAC-SHA256 over the concatenation of parts.
func (k Key) SumParts(parts ...[]byte) MAC {
	return NewMACKey(k).SumParts(parts...)
}

// Equal reports whether m and o are the same MAC, in constant time.
func (m MAC) Equal(o MAC) bool { return hmac.Equal(m[:], o[:]) }

// MACKey is a key bound for repeated HMAC-SHA256. On the kernel path it
// is the two HMAC midstates, the SHA-256 states after absorbing key⊕ipad
// and key⊕opad: a MAC streams its input through a stack-local block
// from the inner midstate and then the inner digest from the outer one,
// so a MAC over at most 55 bytes is exactly two compressions, with no
// pool, no interface call and no heap state. Without the kernel it is a
// pool of keyed crypto/hmac states, reset to the key's initial state on
// reuse. Whoever MACs under one key repeatedly — a KeyStore per peer, a
// TrInX or USIG instance — holds the handle, so a MAC finds its key
// without any lookup.
type MACKey struct {
	inner, outer [8]uint32
	std          *sync.Pool // of *macState; nil on the kernel path
}

// macState is one pooled crypto/hmac state together with the buffers a
// MAC passes through: input is copied through in (see absorb) and the
// result summed into out, both of which live on the heap once, with the
// state.
type macState struct {
	h   hash.Hash
	out MAC
	in  absorbBuf
}

// NewMACKey binds k. The handle keeps no reference to k.
func NewMACKey(k Key) *MACKey {
	if !useKernel {
		kc := append(Key(nil), k...)
		pool := &sync.Pool{New: func() any { return &macState{h: hmac.New(sha256.New, kc)} }}
		return &MACKey{std: pool}
	}
	if len(k) > sha256.BlockSize {
		d := Hash(k)
		k = d[:]
	}
	var ipad, opad [sha256.BlockSize]byte
	copy(ipad[:], k)
	copy(opad[:], k)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	mk := &MACKey{inner: iv, outer: iv}
	block(&mk.inner, ipad[:])
	block(&mk.outer, opad[:])
	return mk
}

// begin starts s as a MAC's inner stream, after the key block.
func (k *MACKey) begin(s *stream) {
	s.h = k.inner
	s.len = sha256.BlockSize
}

// finish ends the inner stream and MACs its digest from the outer
// midstate: the outer message is the 32-byte inner digest, which with
// its padding is one block, built in s's own buffer.
func (k *MACKey) finish(s *stream) MAC {
	s.pad()
	s.putWords(s.buf[:DigestSize])
	s.buf[DigestSize] = 0x80
	clear(s.buf[DigestSize+1 : 56])
	binary.BigEndian.PutUint64(s.buf[56:], (sha256.BlockSize+DigestSize)<<3)
	s.h = k.outer
	block(&s.h, s.buf[:])
	var m MAC
	s.putWords(m[:])
	return m
}

// state takes a pooled crypto/hmac state, reset to the key's initial
// state.
func (k *MACKey) state() *macState {
	st := k.std.Get().(*macState)
	st.h.Reset()
	return st
}

// sum finishes st's MAC and returns st to the pool.
func (k *MACKey) sum(st *macState) MAC {
	st.h.Sum(st.out[:0])
	m := st.out
	k.std.Put(st)
	return m
}

// Sum computes the HMAC-SHA256 of data; byte-identical to Key.Sum.
func (k *MACKey) Sum(data []byte) MAC {
	return k.SumHeader(nil, data)
}

// SumParts computes the HMAC-SHA256 over the concatenation of parts.
func (k *MACKey) SumParts(parts ...[]byte) MAC {
	if k.std != nil {
		st := k.state()
		for _, p := range parts {
			absorb(st.h, &st.in, p)
		}
		return k.sum(st)
	}
	var s stream
	k.begin(&s)
	for _, p := range parts {
		s.write(p)
	}
	return k.finish(&s)
}

// SumHeader computes the HMAC-SHA256 of hdr ‖ body: a header the
// caller builds in its own frame stays there.
func (k *MACKey) SumHeader(hdr, body []byte) MAC {
	if k.std != nil {
		st := k.state()
		absorb(st.h, &st.in, hdr)
		absorb(st.h, &st.in, body)
		return k.sum(st)
	}
	var s stream
	k.begin(&s)
	s.write(hdr)
	s.write(body)
	return k.finish(&s)
}

// SumDigest computes the HMAC-SHA256 of d, byte-identical to Sum(d[:]):
// the authenticator entry point. On the kernel path d goes straight
// into the stream's block.
func (k *MACKey) SumDigest(d Digest) MAC {
	if k.std != nil {
		return k.SumHeader(d[:], nil)
	}
	var s stream
	k.begin(&s)
	s.n = copy(s.buf[:], d[:])
	s.len += DigestSize
	return k.finish(&s)
}

// U64 encodes v in big-endian order; a helper for building MAC inputs.
func U64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// U32 encodes v in big-endian order; a helper for building MAC inputs.
func U32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// KeyStore holds the pairwise session keys of one node in a replica
// group. Node identifiers cover both replicas and clients: replicas use
// IDs [0, n), clients use IDs >= ClientIDBase.
//
// Pairwise keys are derived deterministically from a group master secret
// so that all nodes agree without a key exchange protocol; this mirrors
// the statically configured session keys of the paper's prototype.
type KeyStore struct {
	self   uint32
	master Key

	// Per-peer MAC key handles, memoized: every authenticator creation
	// and verification needs one, and re-deriving costs an HMAC plus
	// the handle. Peers with small IDs — the replica group — sit in a
	// dense table read with one atomic load; the rest are clients, an
	// unbounded population, whose handles go into a map that stops
	// growing at maxCachedKeys (past it KeyFor derives per call).
	replicas    [denseKeys]atomic.Pointer[MACKey]
	clients     sync.Map // uint32 → *MACKey
	clientCount atomic.Int64
}

const (
	denseKeys     = 64
	maxCachedKeys = 4096
)

// ClientIDBase is the first node ID assigned to clients. IDs below it
// identify replicas.
const ClientIDBase = 1 << 16

// NewKeyStore creates the key store of node self from the group master
// secret.
func NewKeyStore(self uint32, master Key) *KeyStore {
	return &KeyStore{self: self, master: master}
}

// Self returns the node ID this key store belongs to.
func (ks *KeyStore) Self() uint32 { return ks.self }

// PairKey derives the symmetric key shared between nodes a and b.
// The derivation is symmetric: PairKey(a,b) == PairKey(b,a).
func (ks *KeyStore) PairKey(a, b uint32) Key {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	d := ks.master.SumParts([]byte("pair"), U32(lo), U32(hi))
	return Key(d[:])
}

// KeyFor returns the MAC key handle this node shares with peer.
func (ks *KeyStore) KeyFor(peer uint32) *MACKey {
	if peer < denseKeys {
		slot := &ks.replicas[peer]
		if k := slot.Load(); k != nil {
			return k
		}
		slot.CompareAndSwap(nil, NewMACKey(ks.PairKey(ks.self, peer)))
		return slot.Load()
	}
	if k, ok := ks.clients.Load(peer); ok {
		return k.(*MACKey)
	}
	k := NewMACKey(ks.PairKey(ks.self, peer))
	if ks.clientCount.Load() >= maxCachedKeys {
		return k
	}
	if actual, loaded := ks.clients.LoadOrStore(peer, k); loaded {
		return actual.(*MACKey)
	}
	ks.clientCount.Add(1)
	return k
}

// Authenticator is a PBFT-style vector of MACs: one MAC per receiver,
// each computed under the pairwise key of sender and receiver. A message
// carrying an authenticator can be verified by every replica in the
// group, but — unlike a signature or trusted MAC — a faulty sender can
// craft an authenticator that verifies at some receivers and not others.
type Authenticator struct {
	Sender uint32
	MACs   []MAC // indexed by replica ID
}

// NewAuthenticator computes the authenticator of sender over digest d
// for receivers [0, n). A MAC slot is included for the sender itself so
// that messages replayed back to their author (e.g. a replica's own
// PREPARE inside another replica's VIEW-CHANGE) remain verifiable.
func NewAuthenticator(ks *KeyStore, d Digest, n int) Authenticator {
	a := Authenticator{Sender: ks.Self(), MACs: make([]MAC, n)}
	for r := 0; r < n; r++ {
		a.MACs[r] = ks.KeyFor(uint32(r)).SumDigest(d)
	}
	return a
}

// VerifyAuthenticator checks the MAC destined for this node inside a.
func VerifyAuthenticator(ks *KeyStore, a Authenticator, d Digest) bool {
	if int(ks.Self()) >= len(a.MACs) {
		return false
	}
	return ks.KeyFor(a.Sender).SumDigest(d).Equal(a.MACs[ks.Self()])
}
