package message

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"hybster/internal/crypto"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
	"hybster/internal/usig"
)

// --- codec primitives ---

func TestCodecPrimitivesRoundtrip(t *testing.T) {
	err := quick.Check(func(a uint8, c uint32, d uint64, f bool, v []byte) bool {
		e := NewEncoder(64)
		e.U8(a)
		e.U32(c)
		e.U64(d)
		e.Bool(f)
		e.VarBytes(v)
		dec := NewDecoder(e.Bytes())
		okA := dec.U8() == a
		okC := dec.U32() == c
		okD := dec.U64() == d
		okF := dec.Bool() == f
		got := dec.VarBytes()
		return okA && okC && okD && okF && bytes.Equal(got, v) && dec.Finish() == nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // truncated
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Err() = %v", d.Err())
	}
	// Subsequent reads stay safe and zero.
	if d.U32() != 0 || d.U8() != 0 || d.VarBytes() != nil {
		t.Fatal("reads after error not zero")
	}
	if d.Finish() == nil {
		t.Fatal("Finish() nil after error")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(8)
	e.U32(7)
	buf := append(e.Bytes(), 0xff)
	d := NewDecoder(buf)
	_ = d.U32()
	if err := d.Finish(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Finish() = %v, want ErrMalformed", err)
	}
}

func TestDecoderHostileLengthPrefix(t *testing.T) {
	e := NewEncoder(8)
	e.U32(0xffffffff) // absurd length
	d := NewDecoder(e.Bytes())
	if d.VarBytes() != nil || d.Err() == nil {
		t.Fatal("hostile VarBytes length accepted")
	}
	d2 := NewDecoder(e.Bytes())
	if d2.Len(16) != 0 || d2.Err() == nil {
		t.Fatal("hostile Len accepted")
	}
}

// --- fixtures ---

func sampleCert(seed uint64) trinx.Certificate {
	var mac crypto.MAC
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Read(mac[:])
	return trinx.Certificate{
		Kind:    trinx.Independent,
		Issuer:  trinx.MakeInstanceID(uint32(seed%5), uint32(seed%3)),
		Counter: uint32(seed % 7),
		Value:   seed * 31,
		Prev:    seed * 13,
		MAC:     mac,
	}
}

func sampleAuth(sender uint32, n int) crypto.Authenticator {
	a := crypto.Authenticator{Sender: sender, MACs: make([]crypto.MAC, n)}
	for i := range a.MACs {
		a.MACs[i][0] = byte(i + 1)
	}
	return a
}

func sampleRequest(i int) *Request {
	return &Request{
		Client:   crypto.ClientIDBase + uint32(i),
		Seq:      uint64(i) * 3,
		ReadOnly: i%2 == 0,
		Payload:  []byte{byte(i), byte(i + 1)},
		Auth:     sampleAuth(crypto.ClientIDBase+uint32(i), 3),
	}
}

func sampleCheckpoint(i int) *Checkpoint {
	return &Checkpoint{
		Order: timeline.Order(i * 50), Replica: uint32(i),
		StateDigest: crypto.Hash([]byte{byte(i)}), Cert: sampleCert(uint64(i)),
	}
}

func samplePrepare(i int) *Prepare {
	return &Prepare{
		View: timeline.View(i), Order: timeline.Order(i * 10),
		Requests: []*Request{sampleRequest(i), sampleRequest(i + 1)},
		Cert:     sampleCert(uint64(i)),
	}
}

func sampleViewChange(i int) *ViewChange {
	return &ViewChange{
		Replica: uint32(i), Pillar: uint32(i % 3),
		From: timeline.View(i), To: timeline.View(i + 1),
		CkptOrder: timeline.Order(i * 100), CkptDigest: crypto.Hash([]byte{byte(i)}),
		CkptProof: []*Checkpoint{sampleCheckpoint(i), sampleCheckpoint(i + 1)},
		Prepares:  []*Prepare{samplePrepare(i)},
		Cert:      sampleCert(uint64(i) + 7),
	}
}

func sampleUI(i int) usig.UI {
	var mac crypto.MAC
	mac[0] = byte(i)
	return usig.UI{Issuer: uint32(i), Counter: uint64(i) * 11, MAC: mac}
}

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		sampleRequest(1),
		&Reply{Replica: 2, Client: crypto.ClientIDBase + 1, Seq: 9, Result: []byte("ok"), MAC: crypto.MAC{1}},
		samplePrepare(2),
		&Commit{View: 1, Order: 20, Replica: 2, BatchDigest: crypto.Hash([]byte("b")), Cert: sampleCert(3)},
		sampleCheckpoint(3),
		sampleViewChange(4),
		&NewView{
			View: 5, Pillar: 1,
			VCs:      []*ViewChange{sampleViewChange(5), sampleViewChange(6)},
			Acks:     []*NewViewAck{{Replica: 1, Pillar: 0, View: 4, Prepares: []*Prepare{samplePrepare(7)}, Cert: sampleCert(8)}},
			Prepares: []*Prepare{samplePrepare(9)},
			Cert:     sampleCert(10),
		},
		&NewViewAck{Replica: 0, Pillar: 2, View: 3, Prepares: nil, Cert: sampleCert(11)},
		&PrePrepare{View: 1, Order: 4, Requests: []*Request{sampleRequest(3)}, Proof: Proof{Auth: sampleAuth(0, 4)}},
		&PBFTPrepare{View: 1, Order: 4, Replica: 2, BatchDigest: crypto.Hash([]byte("x")), Proof: Proof{TCert: sampleCert(12)}},
		&PBFTCommit{View: 1, Order: 4, Replica: 3, BatchDigest: crypto.Hash([]byte("y")), Proof: Proof{Auth: sampleAuth(3, 4)}},
		&PBFTCheckpoint{Order: 100, Replica: 1, StateDigest: crypto.Hash([]byte("s")), Proof: Proof{TCert: sampleCert(13)}},
		&PBFTViewChange{
			Replica: 2, View: 6, CkptOrder: 100,
			CkptProof: []*PBFTCheckpoint{{Order: 100, Replica: 0, StateDigest: crypto.Hash([]byte("s")), Proof: Proof{Auth: sampleAuth(0, 4)}}},
			Prepared: []PreparedProof{{
				PrePrepare: &PrePrepare{View: 5, Order: 101, Requests: []*Request{sampleRequest(4)}, Proof: Proof{Auth: sampleAuth(1, 4)}},
				Prepares:   []*PBFTPrepare{{View: 5, Order: 101, Replica: 2, BatchDigest: crypto.Hash([]byte("z")), Proof: Proof{Auth: sampleAuth(2, 4)}}},
			}},
			Proof: Proof{Auth: sampleAuth(2, 4)},
		},
		&PBFTNewView{
			View:        6,
			VCs:         []*PBFTViewChange{{Replica: 1, View: 6, CkptOrder: 0, Proof: Proof{TCert: sampleCert(14)}}},
			PrePrepares: []*PrePrepare{{View: 6, Order: 101, Proof: Proof{TCert: sampleCert(15)}}},
			Proof:       Proof{TCert: sampleCert(16)},
		},
		&MinPrepare{View: 2, Requests: []*Request{sampleRequest(5)}, UI: sampleUI(1)},
		&MinCommit{View: 2, Replica: 1, BatchDigest: crypto.Hash([]byte("m")), PrepareUI: sampleUI(2), UI: sampleUI(3)},
		&Suspect{Replica: 2, View: 4, Auth: sampleAuth(2, 3)},
		&MinViewChange{
			Replica: 1, View: 4, CkptOrder: 20,
			CkptProof: []*Checkpoint{sampleCheckpoint(2)},
			HistBase:  7, History: [][]byte{{1, 2, 3}, {4, 5}},
			AnchorView: 3, AnchorOrder: 21, AnchorCounter: 9,
			UI: sampleUI(4),
		},
		&MinNewView{View: 4, VCs: []*MinViewChange{{Replica: 0, View: 4, UI: sampleUI(5)}}, UI: sampleUI(6)},
		&StateRequest{Replica: 2, From: 150},
		&StateReply{Replica: 0, CkptOrder: 200, Snapshot: []byte("snap"), ReplyVector: []byte("rv"), Proof: []Message{sampleCheckpoint(9)}},
	}
}

func TestMarshalRoundtripAllTypes(t *testing.T) {
	for _, m := range allMessages() {
		buf := Marshal(m)
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", m.MsgType(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s: roundtrip mismatch:\n sent %#v\n got  %#v", m.MsgType(), m, got)
		}
	}
}

func TestUnmarshalTruncationsNeverPanic(t *testing.T) {
	for _, m := range allMessages() {
		buf := Marshal(m)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Unmarshal(buf[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d accepted", m.MsgType(), cut, len(buf))
			}
		}
	}
}

func TestUnmarshalRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		_, _ = Unmarshal(buf) // must not panic; errors are fine
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

// TestReplyMACGoldens pins the REPLY authenticator: one HMAC-SHA256
// under the replica-client pair key over "reply" ‖ replica ‖ client ‖
// seq ‖ len ‖ result, with no digest of the reply in front. Clients and
// replicas must agree on it byte for byte, so a change here is a
// protocol break. Each value is checked against the preimage spelled
// out and MACed by a fresh hmac.New as well as against its hex.
func TestReplyMACGoldens(t *testing.T) {
	kib := make([]byte, 1024)
	for i := range kib {
		kib[i] = byte(i * 7)
	}
	const client = crypto.ClientIDBase + 1
	key := crypto.NewKeyFromSeed("reply-mac-golden")
	for _, tc := range []struct {
		name string
		rep  *Reply
		want string
	}{
		{"reply 0 B", &Reply{Replica: 2, Client: client, Seq: 9},
			"ed24de87fe92f62c8a9cc228de2a870905e47e0345f7679b59917dce4504e809"},
		{"reply 1 KiB", &Reply{Replica: 2, Client: client, Seq: 9, Result: kib},
			"a3db5cc07e96dc292010489fda21d3b57e86e117c8901616b5596824a6653ba8"},
	} {
		got := tc.rep.MACUnder(crypto.NewMACKey(key))
		pre := append([]byte("reply"), 0, 0, 0, 2)
		pre = binary.BigEndian.AppendUint32(pre, client)
		pre = binary.BigEndian.AppendUint64(pre, 9)
		pre = binary.BigEndian.AppendUint32(pre, uint32(len(tc.rep.Result)))
		h := hmac.New(sha256.New, key)
		h.Write(append(pre, tc.rep.Result...))
		if ref := h.Sum(nil); !bytes.Equal(got[:], ref) {
			t.Errorf("%s: MAC %x, the spelled-out preimage's %x", tc.name, got[:], ref)
		}
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("%s: MAC %x, golden %s", tc.name, got[:], tc.want)
		}
	}
}

// TestReplyMACCoversEveryField: a reply whose replica, client, sequence
// number or result changed after it was MACed fails verification, and
// so does one whose result lost or gained a byte at its boundary with
// the length.
func TestReplyMACCoversEveryField(t *testing.T) {
	const client = crypto.ClientIDBase + 1
	k := crypto.NewMACKey(crypto.NewKeyFromSeed("reply-mac"))
	mac := (&Reply{Replica: 2, Client: client, Seq: 9, Result: []byte("result")}).MACUnder(k)
	for name, forged := range map[string]*Reply{
		"replica":              {Replica: 1, Client: client, Seq: 9, Result: []byte("result")},
		"client":               {Replica: 2, Client: client + 1, Seq: 9, Result: []byte("result")},
		"seq":                  {Replica: 2, Client: client, Seq: 10, Result: []byte("result")},
		"result":               {Replica: 2, Client: client, Seq: 9, Result: []byte("resulT")},
		"result one byte less": {Replica: 2, Client: client, Seq: 9, Result: []byte("esult")},
		"result one byte more": {Replica: 2, Client: client, Seq: 9, Result: []byte("\x06result")},
	} {
		if forged.MACUnder(k).Equal(mac) {
			t.Errorf("%s changed after MACing: the reply still verifies", name)
		}
	}
}

// TestPayloadDigestGoldens pins the preimage of the digest that covers
// a request's payload. Authenticators, TrInX certificates and WAL
// records are computed over it, so a change here is a wire and storage
// format break. The hex strings were computed at d4dc3c5.
func TestPayloadDigestGoldens(t *testing.T) {
	kib := make([]byte, 1024)
	for i := range kib {
		kib[i] = byte(i * 7)
	}
	const client = crypto.ClientIDBase + 1
	for _, tc := range []struct {
		name string
		got  crypto.Digest
		want string
	}{
		{"request 0 B", (&Request{Client: client, Seq: 9}).Digest(),
			"12f1304885ebf8d1c75f76ea921e2c2463daa6dc1cda37d4cd58b255d0ae1ad0"},
		{"request 1 KiB", (&Request{Client: client, Seq: 9, Payload: kib}).Digest(),
			"5a9a31a2472d895985c6308328be1a8ed521fb247603f34a30665da7d3b40918"},
		{"request 1 KiB read-only", (&Request{Client: client, Seq: 9, ReadOnly: true, Payload: kib}).Digest(),
			"d5b755ed15956d6f636246ca9f031cfb879ca309e8d8667526830d7f27108c04"},
	} {
		if got := hex.EncodeToString(tc.got[:]); got != tc.want {
			t.Errorf("%s: digest %s, golden %s", tc.name, got, tc.want)
		}
	}
}

func TestDigestsChangeWithContent(t *testing.T) {
	// Digests are memoized and messages are immutable once digested, so
	// every variant is constructed fresh rather than mutated in place.
	r1, r2 := sampleRequest(1), sampleRequest(1)
	if r1.Digest() != r2.Digest() {
		t.Fatal("identical requests have different digests")
	}
	r3 := sampleRequest(1)
	r3.Payload = []byte("other")
	if r1.Digest() == r3.Digest() {
		t.Fatal("payload change did not change request digest")
	}

	p1, p2 := samplePrepare(1), samplePrepare(1)
	if p1.Digest() != p2.Digest() {
		t.Fatal("identical prepares differ")
	}
	p3 := samplePrepare(1)
	p3.Order++
	if p1.Digest() == p3.Digest() {
		t.Fatal("order change did not change prepare digest")
	}

	c := &Commit{View: 1, Order: 5, Replica: 0, BatchDigest: crypto.Hash([]byte("b"))}
	c2 := &Commit{View: 1, Order: 5, Replica: 1, BatchDigest: crypto.Hash([]byte("b"))}
	if c.Digest() == c2.Digest() {
		t.Fatal("replica change did not change commit digest")
	}
}

func TestBatchDigestProperties(t *testing.T) {
	a, b := sampleRequest(1), sampleRequest(2)
	if BatchDigest([]*Request{a, b}) == BatchDigest([]*Request{b, a}) {
		t.Fatal("batch digest ignores order")
	}
	if BatchDigest(nil) != BatchDigest([]*Request{}) {
		t.Fatal("empty batch digests differ")
	}
	if BatchDigest(nil).IsZero() {
		t.Fatal("empty batch digest is zero")
	}
	if BatchDigest([]*Request{a}) == BatchDigest(nil) {
		t.Fatal("no-op batch collides with non-empty batch")
	}
}

func TestPrepareCommitSamePointDigestsDiffer(t *testing.T) {
	// A PREPARE and a COMMIT for the same instance must never share a
	// digest; otherwise a certificate for one could be replayed as the
	// other.
	p := samplePrepare(1)
	c := &Commit{View: p.View, Order: p.Order, Replica: 0, BatchDigest: p.BatchDigest()}
	if p.Digest() == c.Digest() {
		t.Fatal("prepare and commit digests collide")
	}
}

func TestPointHelpers(t *testing.T) {
	p := samplePrepare(3)
	if p.Point() != timeline.Pack(p.View, p.Order) {
		t.Fatal("Prepare.Point mismatch")
	}
	c := &Commit{View: 2, Order: 9}
	if c.Point() != timeline.Pack(2, 9) {
		t.Fatal("Commit.Point mismatch")
	}
}

func TestViewChangeDigestCoversPrepares(t *testing.T) {
	v1, v2 := sampleViewChange(1), sampleViewChange(1)
	if v1.Digest() != v2.Digest() {
		t.Fatal("identical view-changes differ")
	}
	noPreps := sampleViewChange(1)
	noPreps.Prepares = nil
	if v1.Digest() == noPreps.Digest() {
		t.Fatal("dropping prepares did not change view-change digest — concealment possible")
	}
	v3 := sampleViewChange(1)
	v3.From++
	if v1.Digest() == v3.Digest() {
		t.Fatal("v_from not covered by digest")
	}
}

func TestTypeString(t *testing.T) {
	names := []string{
		"REQUEST", "REPLY", "PREPARE", "COMMIT", "CHECKPOINT", "VIEW-CHANGE",
		"NEW-VIEW", "NEW-VIEW-ACK", "PRE-PREPARE", "PBFT-PREPARE", "PBFT-COMMIT",
		"PBFT-CHECKPOINT", "PBFT-VIEW-CHANGE", "PBFT-NEW-VIEW", "MIN-PREPARE",
		"MIN-COMMIT", "SUSPECT", "MIN-VIEW-CHANGE", "MIN-NEW-VIEW",
		"STATE-REQUEST", "STATE-REPLY",
	}
	if len(names) != int(TypeStateReply) {
		t.Fatalf("%d names for %d types", len(names), TypeStateReply)
	}
	for i, want := range names {
		if got := Type(i + 1).String(); got != want {
			t.Errorf("Type(%d) = %s, want %s", i+1, got, want)
		}
	}
	// The table's other column: each row constructs its own type.
	for i := range names {
		if got := types[i+1].new().MsgType(); got != Type(i+1) {
			t.Errorf("types[%d] constructs a %s", i+1, got)
		}
	}
	for _, unknown := range []Type{0, TypeStateReply + 1, 200} {
		if unknown.String() != "UNKNOWN" {
			t.Errorf("Type(%d) = %s, want UNKNOWN", unknown, unknown)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = TypeViewChange.String(); _ = Type(200).String() }); n != 0 {
		t.Errorf("Type.String allocates %.1f/op, want 0", n)
	}
}

func TestProofVariants(t *testing.T) {
	var p Proof
	if p.HasTCert() {
		t.Fatal("zero proof claims TCert")
	}
	p.TCert = sampleCert(1)
	if !p.HasTCert() {
		t.Fatal("TCert proof not detected")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	for _, m := range allMessages() {
		if !bytes.Equal(Marshal(m), Marshal(m)) {
			t.Fatalf("%s: non-deterministic marshaling", m.MsgType())
		}
	}
}

// TestUnmarshalRejectsOutOfRangeViewOrder pins that view and order
// numbers exceeding the timeline field widths are rejected at decode
// time: a corrupted or hostile frame must fail to parse rather than
// make timeline.Pack panic inside a later Digest call.
func TestUnmarshalRejectsOutOfRangeViewOrder(t *testing.T) {
	overView := uint64(timeline.MaxView) + 1
	overOrder := uint64(timeline.MaxOrder) + 1

	cases := []Message{
		&Prepare{View: timeline.View(overView)},
		&Commit{Order: timeline.Order(overOrder)},
		&PBFTPrepare{View: timeline.View(overView)},
		&PBFTCommit{Order: timeline.Order(overOrder)},
		&PBFTViewChange{View: timeline.View(overView)},
		&MinPrepare{View: timeline.View(overView)},
		&Checkpoint{Order: timeline.Order(overOrder)},
	}
	for _, m := range cases {
		buf := Marshal(m)
		if _, err := Unmarshal(buf); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s with out-of-range view/order: err = %v, want ErrMalformed",
				m.MsgType(), err)
		}
	}
}

// TestUnmarshalHostilePrefixSweep overwrites every four-byte window of
// every corpus message with a huge count, so each length prefix (and
// each field next to one) is hostile in turn: 0xFFFFFFFF, and 0x03FFFFFF,
// the largest value the decoder's global slice cap lets through, which
// only the per-list minimum element sizes stand against. Unmarshal must
// not panic, and an input it rejects must not have sized an allocation
// from the prefix.
func TestUnmarshalHostilePrefixSweep(t *testing.T) {
	for _, m := range goldenCorpus() {
		good := Marshal(m)
		buf := make([]byte, len(good))
		for _, hostile := range []string{"\xff\xff\xff\xff", "\x03\xff\xff\xff"} {
			for off := 0; off+4 <= len(good); off++ {
				copy(buf, good)
				copy(buf[off:], hostile)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := Unmarshal(buf)
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; err != nil && grew >= 1<<20 {
					t.Fatalf("%s: % x at %d/%d rejected only after allocating %d bytes",
						m.MsgType(), hostile, off, len(good), grew)
				}
			}
		}
	}
}

// TestDecodeErrorLeavesListNil pins what a caller inside the package
// may rely on after a failed walk: a list with a decode error inside is
// nil, never a prefix of half-decoded elements.
func TestDecodeErrorLeavesListNil(t *testing.T) {
	p := samplePrepare(2)
	raw := Marshal(p)[1:]
	// Cut inside the second request: the first one decodes fine.
	cut := 8 + 8 + 4 + WireSize(p.Requests[0]) + 5
	w := &wire{mode: wireGet, d: Decoder{buf: raw[:cut]}}
	var got Prepare
	got.wire(w)
	if !errors.Is(w.d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", w.d.Err())
	}
	if got.Requests != nil {
		t.Fatalf("failed list decode left %d elements behind", len(got.Requests))
	}

	vc := &MinViewChange{History: [][]byte{{1, 2, 3}, {4, 5, 6}}}
	raw = Marshal(vc)[1:]
	w = &wire{mode: wireGet, d: Decoder{buf: raw[:4+8+8+4+8+4+7+2]}}
	var gotVC MinViewChange
	gotVC.wire(w)
	if w.d.Err() == nil || gotVC.History != nil {
		t.Fatalf("err = %v, history = %v; want an error and nil", w.d.Err(), gotVC.History)
	}
}
