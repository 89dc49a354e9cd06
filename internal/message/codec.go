// Package message defines every protocol message exchanged by the
// replication protocols in this repository (Hybster, HybsterX, PBFTcop,
// HybridPBFT, MinBFT) together with a deterministic binary wire codec
// and the canonical digests that trusted-counter certificates and MAC
// authenticators are computed over.
//
// The in-process transport passes message values directly; the TCP
// transport and the state-transfer protocol use Marshal/Unmarshal.
// Messages are treated as immutable once sent.
//
// Each message's wire layout is written once, as the wire method next
// to its struct; Marshal, Unmarshal and WireSize walk it in put, get or
// count mode (marshal.go). testdata/wire.golden pins the bytes: a wire
// change regenerates it (make wire-golden) in the same commit.
package message

import (
	"errors"
	"fmt"
)

// ErrTruncated is returned when a buffer ends before the message does.
var ErrTruncated = errors.New("message: truncated buffer")

// ErrMalformed is returned for structurally invalid encodings.
var ErrMalformed = errors.New("message: malformed encoding")

// maxSliceLen bounds decoded slice lengths to guard against corrupt or
// hostile length prefixes allocating unbounded memory.
const maxSliceLen = 1 << 26 // 64 Mi elements / bytes

// Encoder appends big-endian primitives to a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder creates an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a fixed 32-byte value (digest or MAC).
func (e *Encoder) Bytes32(v [32]byte) { e.buf = append(e.buf, v[:]...) }

// VarBytes appends a length-prefixed byte slice.
func (e *Encoder) VarBytes(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Len appends a slice length prefix.
func (e *Encoder) Len(n int) { e.U32(uint32(n)) }

// Decoder consumes big-endian primitives from a buffer. Errors are
// sticky: after the first failure all subsequent reads return zero
// values and Err reports the failure, so decode paths need a single
// error check at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes32 reads a fixed 32-byte value.
func (d *Decoder) Bytes32() [32]byte {
	var v [32]byte
	b := d.take(32)
	if b != nil {
		copy(v[:], b)
	}
	return v
}

// VarBytes reads a length-prefixed byte slice. The result aliases the
// input buffer.
func (d *Decoder) VarBytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxSliceLen {
		d.err = fmt.Errorf("%w: byte slice length %d", ErrMalformed, n)
		return nil
	}
	return d.take(int(n))
}

// Len reads a slice length prefix and validates it against the
// remaining buffer assuming each element occupies at least minElem
// bytes.
func (d *Decoder) Len(minElem int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if n > maxSliceLen || (minElem > 0 && int(n) > d.Remaining()/minElem+1) {
		d.err = fmt.Errorf("%w: slice length %d exceeds buffer", ErrMalformed, n)
		return 0
	}
	return int(n)
}
