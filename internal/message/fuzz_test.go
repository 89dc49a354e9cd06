package message

import (
	"bytes"
	"math"
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/timeline"
)

// viewChangeSeeds are seeds shaped like the view-change,
// checkpointing and state-transfer protocols actually on the wire:
// empty and deeply nested certificate sets, zero-length batches,
// multi-pillar NEW-VIEWs with acknowledgments, a STATE-REPLY certified
// by PBFT announcements, and boundary order/view values. Byte-level
// mutation reaches these decode paths far faster when the corpus
// starts inside them.
func viewChangeSeeds() []Message {
	deepVC := sampleViewChange(11)
	deepVC.Prepares = []*Prepare{samplePrepare(1), samplePrepare(2), samplePrepare(3)}
	deepVC.CkptProof = []*Checkpoint{
		sampleCheckpoint(1), sampleCheckpoint(2), sampleCheckpoint(3),
	}
	emptyVC := &ViewChange{Replica: 1, Pillar: 0, From: 0, To: 1, Cert: sampleCert(1)}
	maxVC := &ViewChange{
		Replica: math.MaxUint32, Pillar: math.MaxUint32,
		From: timeline.View(math.MaxUint64), To: timeline.View(math.MaxUint64),
		CkptOrder: timeline.Order(math.MaxUint64),
		Cert:      sampleCert(3),
	}
	emptyBatch := &Prepare{View: 1, Order: 2, Requests: []*Request{}, Cert: sampleCert(4)}
	return []Message{
		deepVC,
		emptyVC,
		maxVC,
		emptyBatch,
		&Checkpoint{Order: 0, Replica: 0, Cert: sampleCert(5)},
		&Checkpoint{
			Order: timeline.Order(math.MaxUint64), Replica: math.MaxUint32,
			StateDigest: crypto.Hash([]byte("edge")), Cert: sampleCert(6),
		},
		&NewView{View: 1, Pillar: 0, Cert: sampleCert(7)}, // no VCs, acks, prepares
		&NewView{
			View: timeline.View(math.MaxUint64), Pillar: 3,
			VCs: []*ViewChange{emptyVC, deepVC, maxVC},
			Acks: []*NewViewAck{
				{Replica: 0, Pillar: 0, View: 1, Cert: sampleCert(8)},
				{Replica: 2, Pillar: 1, View: 2, Prepares: []*Prepare{emptyBatch}, Cert: sampleCert(9)},
			},
			Prepares: []*Prepare{samplePrepare(4), emptyBatch},
			Cert:     sampleCert(10),
		},
		&NewViewAck{
			Replica: math.MaxUint32, Pillar: 2, View: timeline.View(math.MaxUint64),
			Prepares: []*Prepare{samplePrepare(5)}, Cert: sampleCert(11),
		},
		&StateReply{Replica: 3, CkptOrder: 100, Snapshot: []byte("snap"), ReplyVector: []byte("rv"), Proof: []Message{
			&PBFTCheckpoint{Order: 100, Replica: 0, StateDigest: crypto.Hash([]byte("s")), Proof: Proof{Auth: sampleAuth(0, 4)}},
			&PBFTCheckpoint{Order: 100, Replica: 1, StateDigest: crypto.Hash([]byte("s")), Proof: Proof{TCert: sampleCert(12)}},
		}},
	}
}

// FuzzUnmarshal feeds arbitrary bytes into the wire decoder. The
// decoder must never panic, and any message it does accept must
// re-encode and re-decode stably (round-trip closure).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Marshal(m))
	}
	for _, m := range viewChangeSeeds() {
		f.Add(Marshal(m))
	}
	// The committed fixture's bytes too: they stay what an older codec
	// wrote even while the constructors above follow the current one.
	for _, l := range readGolden(f) {
		f.Add(l.raw)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Accepted messages must round-trip deterministically.
		re := Marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(re, Marshal(m2)) {
			t.Fatalf("marshal not stable after round trip")
		}
	})
}

// FuzzViewChangeRoundtrip builds structurally valid VIEW-CHANGE and
// NEW-VIEW messages from fuzz-controlled field values and requires an
// exact wire round trip. Unlike byte-level fuzzing, this drives the
// *encoder* into corners (huge counts are clamped to keep memory
// bounded, but boundary scalars pass through untouched).
func FuzzViewChangeRoundtrip(f *testing.F) {
	f.Add(uint32(1), uint32(0), uint64(3), uint64(4), uint64(100), uint(2), uint(1), false)
	f.Add(uint32(0), uint32(7), uint64(0), uint64(0), uint64(0), uint(0), uint(0), true)
	f.Add(uint32(math.MaxUint32), uint32(3), uint64(math.MaxUint64), uint64(math.MaxUint64),
		uint64(math.MaxUint64), uint(5), uint(3), true)

	f.Fuzz(func(t *testing.T, replica, pillar uint32, from, to, ckpt uint64,
		nPreps, nProof uint, wrapNV bool) {
		if nPreps > 8 {
			nPreps = 8
		}
		if nProof > 8 {
			nProof = 8
		}
		// The wire format packs views and orders into bounded fields;
		// the decoder rejects anything wider, so a *valid* message must
		// stay inside them.
		from %= uint64(timeline.MaxView) + 1
		to %= uint64(timeline.MaxView) + 1
		ckpt %= uint64(timeline.MaxOrder) + 1
		vc := &ViewChange{
			Replica: replica, Pillar: pillar,
			From: timeline.View(from), To: timeline.View(to),
			CkptOrder: timeline.Order(ckpt), CkptDigest: crypto.Hash([]byte{byte(ckpt)}),
			Cert: sampleCert(from ^ to),
		}
		for i := uint(0); i < nProof; i++ {
			vc.CkptProof = append(vc.CkptProof, sampleCheckpoint(int(i)))
		}
		for i := uint(0); i < nPreps; i++ {
			vc.Prepares = append(vc.Prepares, samplePrepare(int(i)))
		}
		var m Message = vc
		if wrapNV {
			m = &NewView{
				View: timeline.View(to), Pillar: pillar,
				VCs:  []*ViewChange{vc},
				Acks: []*NewViewAck{{Replica: replica, Pillar: pillar, View: timeline.View(from), Cert: sampleCert(to)}},
				Cert: sampleCert(from + to),
			}
		}
		buf := Marshal(m)
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("decode of valid %T failed: %v", m, err)
		}
		if !bytes.Equal(buf, Marshal(got)) {
			t.Fatalf("wire form not stable for %T", m)
		}
	})
}

// FuzzPooledBufferAliasing is the copy-on-decode regression guard for
// the transport's read buffers. The TCP read loop decodes a frame where
// it lies in the connection's buffer (or, when it does not fit, in a
// pooled one) and the next read overwrites those bytes as soon as
// Unmarshal returns, so no decoded message may alias the input: every
// var-length field must be cloned during decode. The fuzzer decodes
// from a scratch buffer, scribbles over that buffer, and requires the
// message's wire form (which walks every field, including digests of
// payloads and nested certificates) to be unchanged.
func FuzzPooledBufferAliasing(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Marshal(m))
	}
	for _, m := range viewChangeSeeds() {
		f.Add(Marshal(m))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode from a private copy that plays the role of the pooled
		// buffer: after Unmarshal it gets recycled for "another frame".
		pooled := make([]byte, len(data))
		copy(pooled, data)
		m, err := Unmarshal(pooled)
		if err != nil {
			return
		}
		before := Marshal(m)
		for i := range pooled {
			pooled[i] ^= 0xa5 // recycle: overwrite with unrelated bytes
		}
		after := Marshal(m)
		if !bytes.Equal(before, after) {
			t.Fatalf("decoded %T aliases its input buffer: wire form changed after the buffer was recycled", m)
		}
	})
}

// TestDecodeDoesNotAliasInput is the deterministic slice of the
// aliasing fuzzer above: every known message type, decoded, must
// survive its source buffer being zeroed.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	for _, m := range allMessages() {
		buf := Marshal(m)
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		before := Marshal(got)
		for i := range buf {
			buf[i] = 0
		}
		if !bytes.Equal(before, Marshal(got)) {
			t.Fatalf("%T retains references into its input buffer", m)
		}
	}
}

// FuzzDecoderPrimitives stresses the length-prefixed primitives
// directly.
func FuzzDecoderPrimitives(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.VarBytes()
		_ = d.U64()
		_ = d.Len(8)
		_ = d.Bytes32()
		_ = d.Finish() // must not panic regardless of input
	})
}
