package message

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hybster/internal/crypto"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
	"hybster/internal/usig"
)

// A message's wire method names its fields once, in wire order; every
// field primitive below has three arms, so the one walk encodes (put),
// decodes (get) and sizes (count) the message.

type wireMode uint8

const (
	wirePut wireMode = iota
	wireGet
	wireCount
)

// wire is one pass over a message: e is live in put mode, d in get
// mode, n in count mode.
type wire struct {
	mode wireMode
	e    Encoder
	d    Decoder
	n    int
}

// maxPooledScratch bounds the encode scratch a pooled walker keeps: a
// state-transfer snapshot must not pin its size in the pool forever.
const maxPooledScratch = 64 << 10

// wirePool recycles walkers and their scratch. A walker escapes through
// the wire interface call, so unpooled every pass would allocate one.
var wirePool sync.Pool

func newWire(mode wireMode) (w *wire, pooled bool) {
	w, pooled = wirePool.Get().(*wire)
	if !pooled { // start with scratch that holds a frame without growing
		w = &wire{e: Encoder{buf: make([]byte, 0, 4096)}}
	}
	w.mode = mode
	return w, pooled
}

func (w *wire) release() {
	if cap(w.e.buf) > maxPooledScratch {
		w.e.buf = nil
	}
	w.d.buf = nil // do not pin the input
	wirePool.Put(w)
}

var (
	marshalTotal    atomic.Uint64
	marshalPoolHits atomic.Uint64
)

// MarshalStats reports how many Marshal calls have run process-wide and
// how many of them were served a recycled encoder from the pool. The
// counters feed the telemetry gauges registered by the engine.
func MarshalStats() (total, poolHits uint64) {
	return marshalTotal.Load(), marshalPoolHits.Load()
}

// Marshal serializes any protocol message, prefixed with its type tag.
// The returned buffer is sized exactly and owned by the caller.
func Marshal(m Message) []byte { return MarshalHeadroom(m, 0) }

// MarshalHeadroom is Marshal with headroom zero bytes in front of the
// type tag, inside the same exact-size allocation: a transport fills
// its frame header there instead of copying the message behind one.
// The message is encoded once into pooled scratch and copied out, so
// the returned buffer is the only allocation and never aliases the
// pool. (Count, allocate, then encode in place walks the message twice:
// measured at 1.9× on a 16-request PREPARE.)
func MarshalHeadroom(m Message, headroom int) []byte {
	marshalTotal.Add(1)
	w, pooled := newWire(wirePut)
	if pooled {
		marshalPoolHits.Add(1)
	}
	w.e.buf = w.e.buf[:0]
	w.e.U8(uint8(m.MsgType()))
	m.wire(w)
	out := make([]byte, headroom+len(w.e.buf))
	copy(out[headroom:], w.e.buf)
	w.release()
	return out
}

// WireSize returns the exact encoded size of m, excluding the one-byte
// type tag Marshal prefixes, without encoding it.
func WireSize(m Message) int {
	w, _ := newWire(wireCount)
	w.n = 0
	m.wire(w)
	n := w.n
	w.release()
	return n
}

// Unmarshal parses a message serialized by Marshal. The result shares
// no memory with buf.
func Unmarshal(buf []byte) (Message, error) {
	w, _ := newWire(wireGet)
	defer w.release()
	w.d = Decoder{buf: buf}
	t := Type(w.d.U8())
	if int(t) >= len(types) || types[t].new == nil {
		return nil, fmt.Errorf("%w: unknown type %d", ErrMalformed, t)
	}
	m := types[t].new()
	m.wire(w)
	if err := w.d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// CheckpointProof appends a stable-checkpoint certificate in its
// protocol's own announcement type: a length-prefixed list of marshaled
// *Checkpoint or *PBFTCheckpoint messages, the one encoding the log's
// checkpoint record and STATE-REPLY share.
func (e *Encoder) CheckpointProof(proof []Message) {
	e.Len(len(proof))
	for _, m := range proof {
		e.VarBytes(Marshal(m))
	}
}

// CheckpointProof reads a proof written by Encoder.CheckpointProof. An
// element whose type tag is not a checkpoint announcement's is refused
// before it is decoded.
func (d *Decoder) CheckpointProof() []Message {
	var proof []Message
	for i, n := 0, d.Len(64); i < n; i++ {
		raw := d.VarBytes()
		if d.err == nil && (len(raw) == 0 || Type(raw[0]) != TypeCheckpoint && Type(raw[0]) != TypePBFTCheckpoint) {
			d.err = fmt.Errorf("%w: proof %d is not a checkpoint announcement", ErrMalformed, i)
		}
		if d.err != nil {
			return nil
		}
		m, err := Unmarshal(raw)
		if err != nil {
			d.err = fmt.Errorf("%w: proof %d: %w", ErrMalformed, i, err)
			return nil
		}
		proof = append(proof, m)
	}
	return proof
}

// --- field primitives ---------------------------------------------------

func (w *wire) u8(v *uint8) {
	switch w.mode {
	case wirePut:
		w.e.U8(*v)
	case wireGet:
		*v = w.d.U8()
	default:
		w.n++
	}
}

func (w *wire) u32(v *uint32) {
	switch w.mode {
	case wirePut:
		w.e.U32(*v)
	case wireGet:
		*v = w.d.U32()
	default:
		w.n += 4
	}
}

func (w *wire) u64(v *uint64) { w.bounded(v, math.MaxUint64, "") }

func (w *wire) flag(v *bool) {
	switch w.mode {
	case wirePut:
		w.e.Bool(*v)
	case wireGet:
		*v = w.d.Bool()
	default:
		w.n++
	}
}

// b32 is a fixed 32-byte value (digest or MAC).
func (w *wire) b32(v *[32]byte) {
	switch w.mode {
	case wirePut:
		w.e.buf = append(w.e.buf, v[:]...)
	case wireGet:
		*v = w.d.Bytes32()
	default:
		w.n += 32
	}
}

// bytes is a length-prefixed byte string. Decoding copies it out of the
// input buffer (the transport reuses that buffer); nil stays nil.
func (w *wire) bytes(v *[]byte) {
	switch w.mode {
	case wirePut:
		w.e.VarBytes(*v)
	case wireGet:
		if b := w.d.VarBytes(); b != nil {
			*v = append([]byte(nil), b...)
		}
	default:
		w.n += 4 + len(*v)
	}
}

// fail records a structural decode error unless one is already set.
func (w *wire) fail(format string, args ...any) {
	if w.d.err == nil {
		w.d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// bounded is a u64 that decoding rejects above max: wire input must
// never be able to make timeline.Pack panic later.
func (w *wire) bounded(v *uint64, max uint64, what string) {
	switch w.mode {
	case wirePut:
		w.e.U64(*v)
	case wireGet:
		if *v = w.d.U64(); *v > max {
			w.fail("%s %d exceeds field width", what, *v)
		}
	default:
		w.n += 8
	}
}

// view is a view number within the packed field width.
func (w *wire) view(v *timeline.View) {
	w.bounded((*uint64)(v), uint64(timeline.MaxView), "view")
}

// order is an order number within the packed field width.
func (w *wire) order(o *timeline.Order) {
	w.bounded((*uint64)(o), uint64(timeline.MaxOrder), "order")
}

// cert is a TrInX certificate: kind(1) issuer(8) counter(4) value(8)
// prev(8) mac(32). It closes every ordering message, so its arms are
// spelled out rather than composed of six primitive calls.
func (w *wire) cert(c *trinx.Certificate) {
	switch w.mode {
	case wirePut:
		e := &w.e
		e.U8(uint8(c.Kind))
		e.U64(uint64(c.Issuer))
		e.U32(c.Counter)
		e.U64(c.Value)
		e.U64(c.Prev)
		e.buf = append(e.buf, c.MAC[:]...)
	case wireGet:
		d := &w.d
		c.Kind = trinx.Kind(d.U8())
		c.Issuer = trinx.InstanceID(d.U64())
		c.Counter = d.U32()
		c.Value = d.U64()
		c.Prev = d.U64()
		c.MAC = d.Bytes32()
	default:
		w.n += 1 + 8 + 4 + 8 + 8 + 32
	}
}

// checkpointProof is a checkpoint certificate (Encoder.CheckpointProof).
func (w *wire) checkpointProof(v *[]Message) {
	switch w.mode {
	case wirePut:
		w.e.CheckpointProof(*v)
	case wireGet:
		*v = w.d.CheckpointProof()
	default:
		w.n += 4
		for _, m := range *v {
			w.n += 4 + 1 + WireSize(m)
		}
	}
}

// ui is a USIG unique identifier: issuer(4) counter(8) mac(32).
func (w *wire) ui(u *usig.UI) {
	w.u32(&u.Issuer)
	w.u64(&u.Counter)
	w.b32((*[32]byte)(&u.MAC))
}

// auth is a MAC authenticator: sender(4) count(4) count × mac(32). It
// rides on every request, so like cert its arms are spelled out.
func (w *wire) auth(a *crypto.Authenticator) {
	switch w.mode {
	case wirePut:
		w.e.U32(a.Sender)
		w.e.Len(len(a.MACs))
		buf := w.e.buf // one store for the whole list, not one per MAC
		for i := range a.MACs {
			buf = append(buf, a.MACs[i][:]...)
		}
		w.e.buf = buf
	case wireGet:
		a.Sender = w.d.U32()
		n := w.d.Len(32)
		if w.d.err != nil {
			return
		}
		a.MACs = make([]crypto.MAC, n)
		for i := range a.MACs {
			a.MACs[i] = w.d.Bytes32()
		}
	default:
		w.n += 4 + 4 + 32*len(a.MACs)
	}
}

// length is a list's length prefix. Encoding and counting pass n
// through; decoding returns the prefix read, or 0 after an error: a
// prefix that exceeds the remaining input at minElem bytes per element
// is rejected before it sizes an allocation.
func (w *wire) length(n, minElem int) int {
	switch w.mode {
	case wirePut:
		w.e.Len(n)
	case wireGet:
		n = w.d.Len(minElem)
	default:
		w.n += 4
	}
	return n
}

// list is a length-prefixed list of messages held by pointer. A decoded
// list has one backing array for all its elements; an empty list
// decodes as nil, and so does a list with a decode error inside.
func list[T any](w *wire, s *[]*T, minElem int, elem func(*T, *wire)) {
	n := w.length(len(*s), minElem)
	if w.mode == wireGet && n > 0 {
		backing := make([]T, n)
		*s = make([]*T, n)
		for i := range backing {
			(*s)[i] = &backing[i]
		}
	}
	for _, x := range *s {
		elem(x, w)
		if w.mode == wireGet && w.d.err != nil {
			*s = nil
			return
		}
	}
}

// values is list for elements held by value.
func values[T any](w *wire, s *[]T, minElem int, elem func(*T, *wire)) {
	n := w.length(len(*s), minElem)
	if w.mode == wireGet && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i], w)
		if w.mode == wireGet && w.d.err != nil {
			*s = nil
			return
		}
	}
}
