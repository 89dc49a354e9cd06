package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// useKernel selects the block kernel for every digest and for every
// MACKey bound from here on; without it, digests and MACs take the
// standard library's path. It is the CPU's answer (haveKernel) and
// nothing else: no option, flag or environment variable sets it; only
// tests switch it, to run both paths.
var useKernel = haveKernel

// iv is SHA-256's initial state.
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// stream is a SHA-256 computation small enough to live in its caller's
// frame: the kernel's state words, one partial block, and the length
// absorbed so far. A stream starts from iv for a digest, or from a
// MACKey's midstate with len 64 for an HMAC; it is set up in place,
// since copying one costs more than the rest of a short MAC's glue.
type stream struct {
	h   [8]uint32
	buf [64]byte
	n   int    // bytes pending in buf
	len uint64 // bytes absorbed, the pending ones included
}

func (s *stream) write(p []byte) {
	s.len += uint64(len(p))
	if s.n > 0 {
		c := copy(s.buf[s.n:], p)
		s.n += c
		p = p[c:]
		if s.n < len(s.buf) {
			return
		}
		block(&s.h, s.buf[:])
		s.n = 0
	}
	if whole := len(p) &^ 63; whole > 0 {
		block(&s.h, p[:whole])
		p = p[whole:]
	}
	s.n = copy(s.buf[:], p)
}

// pad appends SHA-256's padding (0x80, zeros, the bit length) and
// absorbs the last block: with at most 55 bytes pending that is one
// block, otherwise two. s.h is then the digest's words.
func (s *stream) pad() {
	n := s.n
	s.buf[n] = 0x80
	n++
	if n > 56 {
		clear(s.buf[n:])
		block(&s.h, s.buf[:])
		n = 0
	}
	clear(s.buf[n:56])
	binary.BigEndian.PutUint64(s.buf[56:], s.len<<3)
	block(&s.h, s.buf[:])
}

// putWords writes the state words big-endian, the digest's byte order.
func (s *stream) putWords(b []byte) {
	for i, v := range s.h {
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
}

func (s *stream) sum() Digest {
	s.pad()
	var d Digest
	s.putWords(d[:])
	return d
}

// Hasher computes a SHA-256 digest over pieces written one after
// another. On the kernel path it lives entirely in its caller's frame;
// otherwise it borrows a pooled standard-library state until Sum.
type Hasher struct {
	s   stream
	std *stdHash
}

// stdHash is a pooled standard-library hash state with the buffers its
// input and its result pass through (see absorb).
type stdHash struct {
	h   hash.Hash
	in  absorbBuf
	out Digest
}

var stdHashes = sync.Pool{New: func() any { return &stdHash{h: sha256.New()} }}

// NewHasher starts a digest.
func NewHasher() Hasher {
	if !useKernel {
		st := stdHashes.Get().(*stdHash)
		st.h.Reset()
		return Hasher{std: st}
	}
	var h Hasher
	h.s.h = iv
	return h
}

// Write appends p to the digest's input.
func (h *Hasher) Write(p []byte) {
	if h.std != nil {
		absorb(h.std.h, &h.std.in, p)
		return
	}
	h.s.write(p)
}

// Sum returns the digest of everything written. It ends the Hasher:
// nothing is written to it afterwards.
func (h *Hasher) Sum() Digest {
	if st := h.std; st != nil {
		st.h.Sum(st.out[:0])
		d := st.out
		h.std = nil
		stdHashes.Put(st)
		return d
	}
	return h.s.sum()
}

// absorbBuf is the buffer absorb copies through: eight blocks, so a
// 1 KiB reply costs two interface calls, not sixteen.
type absorbBuf [512]byte

// absorb writes p into h by way of buf. Whatever is handed to a
// hash.Hash escapes, so writing p itself would move every caller's
// header, digest and U32/U64 bytes to the heap even on the kernel path;
// copied through a buffer that lives with h, p stays where it is.
func absorb(h hash.Hash, buf *absorbBuf, p []byte) {
	for len(p) > 0 {
		n := copy(buf[:], p)
		h.Write(buf[:n])
		p = p[n:]
	}
}
