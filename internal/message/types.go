package message

import (
	"encoding/binary"

	"hybster/internal/crypto"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

// Type enumerates the wire message types of all protocols.
type Type uint8

// Message type identifiers. Hybster messages (§5.2) come first, then
// the PBFT baseline's, then MinBFT's, then state transfer.
const (
	TypeRequest Type = iota + 1
	TypeReply
	TypePrepare
	TypeCommit
	TypeCheckpoint
	TypeViewChange
	TypeNewView
	TypeNewViewAck
	TypePrePrepare
	TypePBFTPrepare
	TypePBFTCommit
	TypePBFTCheckpoint
	TypePBFTViewChange
	TypePBFTNewView
	TypeMinPrepare
	TypeMinCommit
	TypeSuspect
	TypeMinViewChange
	TypeMinNewView
	TypeStateRequest
	TypeStateReply
)

// types is the one per-type table: the wire name of each type and a
// constructor for the decoder. Everything else the codec needs to know
// about a type is in its wire method.
var types = [...]struct {
	name string
	new  func() Message
}{
	TypeRequest:        {"REQUEST", func() Message { return new(Request) }},
	TypeReply:          {"REPLY", func() Message { return new(Reply) }},
	TypePrepare:        {"PREPARE", func() Message { return new(Prepare) }},
	TypeCommit:         {"COMMIT", func() Message { return new(Commit) }},
	TypeCheckpoint:     {"CHECKPOINT", func() Message { return new(Checkpoint) }},
	TypeViewChange:     {"VIEW-CHANGE", func() Message { return new(ViewChange) }},
	TypeNewView:        {"NEW-VIEW", func() Message { return new(NewView) }},
	TypeNewViewAck:     {"NEW-VIEW-ACK", func() Message { return new(NewViewAck) }},
	TypePrePrepare:     {"PRE-PREPARE", func() Message { return new(PrePrepare) }},
	TypePBFTPrepare:    {"PBFT-PREPARE", func() Message { return new(PBFTPrepare) }},
	TypePBFTCommit:     {"PBFT-COMMIT", func() Message { return new(PBFTCommit) }},
	TypePBFTCheckpoint: {"PBFT-CHECKPOINT", func() Message { return new(PBFTCheckpoint) }},
	TypePBFTViewChange: {"PBFT-VIEW-CHANGE", func() Message { return new(PBFTViewChange) }},
	TypePBFTNewView:    {"PBFT-NEW-VIEW", func() Message { return new(PBFTNewView) }},
	TypeMinPrepare:     {"MIN-PREPARE", func() Message { return new(MinPrepare) }},
	TypeMinCommit:      {"MIN-COMMIT", func() Message { return new(MinCommit) }},
	TypeSuspect:        {"SUSPECT", func() Message { return new(Suspect) }},
	TypeMinViewChange:  {"MIN-VIEW-CHANGE", func() Message { return new(MinViewChange) }},
	TypeMinNewView:     {"MIN-NEW-VIEW", func() Message { return new(MinNewView) }},
	TypeStateRequest:   {"STATE-REQUEST", func() Message { return new(StateRequest) }},
	TypeStateReply:     {"STATE-REPLY", func() Message { return new(StateReply) }},
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if int(t) < len(types) && types[t].name != "" {
		return types[t].name
	}
	return "UNKNOWN"
}

// Message is implemented by every protocol message.
type Message interface {
	// MsgType returns the wire type tag.
	MsgType() Type
	// wire names the message's fields once, in wire order; the walker
	// it is handed encodes, decodes or sizes them (marshal.go).
	wire(w *wire)
}

// --- Client interaction -------------------------------------------------

// Request is a client command submitted to the replica group. Clients
// authenticate requests with a MAC authenticator covering the whole
// group (clients own no trusted subsystem).
type Request struct {
	Client   uint32
	Seq      uint64
	ReadOnly bool
	Payload  []byte
	Auth     crypto.Authenticator

	dc digestCache
}

// MsgType implements Message.
func (*Request) MsgType() Type { return TypeRequest }

func (r *Request) wire(w *wire) {
	w.u32(&r.Client)
	w.u64(&r.Seq)
	w.flag(&r.ReadOnly)
	w.bytes(&r.Payload)
	w.auth(&r.Auth)
}

// Digest returns the canonical digest of the request, the value covered
// by its authenticator and by batch digests. The result is memoized on
// first use; the fields it covers must not change afterwards.
func (r *Request) Digest() crypto.Digest {
	if d, ok := r.dc.cached(); ok {
		return d
	}
	// The preimage is "req" ‖ client ‖ seq ‖ read-only ‖ len ‖ payload;
	// the payload is hashed where it lies, the rest from the stack.
	var hdr [20]byte
	copy(hdr[:], "req")
	binary.BigEndian.PutUint32(hdr[3:], r.Client)
	binary.BigEndian.PutUint64(hdr[7:], r.Seq)
	if r.ReadOnly {
		hdr[15] = 1
	}
	binary.BigEndian.PutUint32(hdr[16:], uint32(len(r.Payload)))
	return r.dc.fill(crypto.HashParts(hdr[:], r.Payload))
}

// Reply carries the execution result of one request back to its client,
// authenticated under the replica-client pair key.
type Reply struct {
	Replica uint32
	Client  uint32
	Seq     uint64
	Result  []byte
	MAC     crypto.MAC
}

// MsgType implements Message.
func (*Reply) MsgType() Type { return TypeReply }

func (r *Reply) wire(w *wire) {
	w.u32(&r.Replica)
	w.u32(&r.Client)
	w.u64(&r.Seq)
	w.bytes(&r.Result)
	w.b32((*[32]byte)(&r.MAC))
}

// MACUnder returns the reply's MAC under k, the key its replica shares
// with its client: one HMAC over "reply" ‖ replica ‖ client ‖ seq ‖ len
// ‖ result, with the result MACed where it lies and no digest of the
// reply in front. The replica's reply stage sets MAC to it and the
// client compares the two; it is the only construction of either side.
// (A digest-only reply would MAC H(result) under a tag of its own.)
func (r *Reply) MACUnder(k *crypto.MACKey) crypto.MAC {
	var hdr [25]byte
	copy(hdr[:], "reply")
	binary.BigEndian.PutUint32(hdr[5:], r.Replica)
	binary.BigEndian.PutUint32(hdr[9:], r.Client)
	binary.BigEndian.PutUint64(hdr[13:], r.Seq)
	binary.BigEndian.PutUint32(hdr[21:], uint32(len(r.Result)))
	return k.SumHeader(hdr[:], r.Result)
}

// BatchDigest folds the digests of a request batch into one digest.
// An empty batch (a no-op instance closing a gap) yields a distinct,
// stable digest. The preimage is the plain concatenation of the
// request digests, streamed into the hash without per-request copies.
func BatchDigest(reqs []*Request) crypto.Digest {
	h := crypto.NewHasher()
	h.Write([]byte("batch"))
	for _, r := range reqs {
		d := r.Digest()
		h.Write(d[:])
	}
	return h.Sum()
}

// --- Hybster ordering (§5.2.1) ------------------------------------------

// Prepare is the leader's proposal assigning a request batch to order
// number Order in view View. Its certificate must be an independent
// counter certificate over counter O with value [View|Order], issued by
// the TrInX instance of the pillar responsible for Order.
type Prepare struct {
	View     timeline.View
	Order    timeline.Order
	Requests []*Request
	Cert     trinx.Certificate

	dc  digestCache
	bdc digestCache
}

// MsgType implements Message.
func (*Prepare) MsgType() Type { return TypePrepare }

func (p *Prepare) wire(w *wire) {
	w.view(&p.View)
	w.order(&p.Order)
	list(w, &p.Requests, 17, (*Request).wire)
	w.cert(&p.Cert)
}

// BatchDigest returns the digest of the proposed batch, memoized on
// first use.
func (p *Prepare) BatchDigest() crypto.Digest {
	if d, ok := p.bdc.cached(); ok {
		return d
	}
	return p.bdc.fill(BatchDigest(p.Requests))
}

// Digest returns the value the prepare certificate covers.
func (p *Prepare) Digest() crypto.Digest {
	if d, ok := p.dc.cached(); ok {
		return d
	}
	bd := p.BatchDigest()
	return p.dc.fill(crypto.HashParts([]byte("prep"),
		crypto.U64(uint64(timeline.Pack(p.View, p.Order))), bd[:]))
}

// Point returns the flattened [view|order] instance identifier.
func (p *Prepare) Point() timeline.Point { return timeline.Pack(p.View, p.Order) }

// Commit is a follower's acknowledgment of a Prepare, certified with an
// independent counter certificate over the same [View|Order] value.
type Commit struct {
	View        timeline.View
	Order       timeline.Order
	Replica     uint32
	BatchDigest crypto.Digest
	Cert        trinx.Certificate

	dc digestCache
}

// MsgType implements Message.
func (*Commit) MsgType() Type { return TypeCommit }

func (c *Commit) wire(w *wire) {
	w.view(&c.View)
	w.order(&c.Order)
	w.u32(&c.Replica)
	w.b32((*[32]byte)(&c.BatchDigest))
	w.cert(&c.Cert)
}

// Digest returns the value the commit certificate covers.
func (c *Commit) Digest() crypto.Digest {
	if d, ok := c.dc.cached(); ok {
		return d
	}
	return c.dc.fill(crypto.HashParts([]byte("com"),
		crypto.U64(uint64(timeline.Pack(c.View, c.Order))),
		crypto.U32(c.Replica), c.BatchDigest[:]))
}

// Point returns the flattened [view|order] instance identifier.
func (c *Commit) Point() timeline.Point { return timeline.Pack(c.View, c.Order) }

// --- Hybster checkpointing (§5.2.2) ---------------------------------------

// Checkpoint announces that a replica saved its service state after
// executing all instances up to and including Order. StateDigest covers
// the service state combined with the client reply vector. Checkpoints
// are not subject to equivocation, so a trusted MAC certificate
// (counter M) suffices.
type Checkpoint struct {
	Order       timeline.Order
	Replica     uint32
	StateDigest crypto.Digest
	Cert        trinx.Certificate

	dc digestCache
}

// MsgType implements Message.
func (*Checkpoint) MsgType() Type { return TypeCheckpoint }

func (c *Checkpoint) wire(w *wire) {
	w.order(&c.Order)
	w.u32(&c.Replica)
	w.b32((*[32]byte)(&c.StateDigest))
	w.cert(&c.Cert)
}

// Digest returns the value the checkpoint certificate covers.
func (c *Checkpoint) Digest() crypto.Digest {
	if d, ok := c.dc.cached(); ok {
		return d
	}
	return c.dc.fill(crypto.HashParts([]byte("ckpt"),
		crypto.U64(uint64(c.Order)), crypto.U32(c.Replica), c.StateDigest[:]))
}

// --- Hybster view change (§5.2.3, §5.3.3) ---------------------------------

// ViewChange announces that the sending pillar of a replica aborted view
// From and supports the leader of view To. It carries the pillar's last
// stable checkpoint (order and quorum proof) and the PREPAREs of all
// instances in the pillar's ordering window it participated in. Its
// continuing counter certificate τ(r(u), O, To|0, From|o_act) forces
// even a faulty replica to disclose every instance up to o_act.
//
// In the basic protocol a replica has a single pillar (Pillar 0) and a
// VIEW-CHANGE consists of exactly one part; in HybsterX receivers act on
// a view change only once parts from all pillars of the sender arrived
// (§5.3.3, "Split External Messages").
type ViewChange struct {
	Replica    uint32
	Pillar     uint32
	From       timeline.View // v_from: last view the replica accepted
	To         timeline.View // v_to: the view it wants to enter
	CkptOrder  timeline.Order
	CkptDigest crypto.Digest
	CkptProof  []*Checkpoint
	Prepares   []*Prepare
	Cert       trinx.Certificate

	dc digestCache
}

// MsgType implements Message.
func (*ViewChange) MsgType() Type { return TypeViewChange }

func (v *ViewChange) wire(w *wire) {
	w.u32(&v.Replica)
	w.u32(&v.Pillar)
	w.view(&v.From)
	w.view(&v.To)
	w.order(&v.CkptOrder)
	w.b32((*[32]byte)(&v.CkptDigest))
	list(w, &v.CkptProof, 44, (*Checkpoint).wire)
	list(w, &v.Prepares, 16, (*Prepare).wire)
	w.cert(&v.Cert)
}

// Digest returns the value the view-change certificate covers.
func (v *ViewChange) Digest() crypto.Digest {
	if d, ok := v.dc.cached(); ok {
		return d
	}
	e := NewEncoder(64 + 40*len(v.Prepares))
	e.U32(v.Replica)
	e.U32(v.Pillar)
	e.U64(uint64(v.From))
	e.U64(uint64(v.To))
	e.U64(uint64(v.CkptOrder))
	e.Bytes32(v.CkptDigest)
	e.Len(len(v.CkptProof))
	for _, c := range v.CkptProof {
		d := c.Digest()
		e.Bytes32(d)
	}
	e.Len(len(v.Prepares))
	for _, p := range v.Prepares {
		d := p.Digest()
		e.Bytes32(d)
	}
	return v.dc.fill(crypto.HashParts([]byte("vc"), e.Bytes()))
}

// NewView is the designated leader's proof that the transition into
// view View is correct: the new-view certificate (a quorum of
// VIEW-CHANGEs plus, when needed, NEW-VIEW-ACKs) and the re-proposed
// PREPAREs for the new view. Authenticity is provided by a trusted MAC;
// the re-proposed PREPAREs carry their own independent certificates.
type NewView struct {
	View     timeline.View
	Pillar   uint32
	VCs      []*ViewChange
	Acks     []*NewViewAck
	Prepares []*Prepare
	Cert     trinx.Certificate

	dc digestCache
}

// MsgType implements Message.
func (*NewView) MsgType() Type { return TypeNewView }

func (n *NewView) wire(w *wire) {
	w.view(&n.View)
	w.u32(&n.Pillar)
	list(w, &n.VCs, 64, (*ViewChange).wire)
	list(w, &n.Acks, 48, (*NewViewAck).wire)
	list(w, &n.Prepares, 16, (*Prepare).wire)
	w.cert(&n.Cert)
}

// Digest returns the value the new-view certificate covers.
func (n *NewView) Digest() crypto.Digest {
	if d, ok := n.dc.cached(); ok {
		return d
	}
	e := NewEncoder(64)
	e.U64(uint64(n.View))
	e.U32(n.Pillar)
	e.Len(len(n.VCs))
	for _, vc := range n.VCs {
		d := vc.Digest()
		e.Bytes32(d)
	}
	e.Len(len(n.Acks))
	for _, a := range n.Acks {
		d := a.Digest()
		e.Bytes32(d)
	}
	e.Len(len(n.Prepares))
	for _, p := range n.Prepares {
		d := p.Digest()
		e.Bytes32(d)
	}
	return n.dc.fill(crypto.HashParts([]byte("nv"), e.Bytes()))
}

// NewViewAck acknowledges that the sender accepted a correct NEW-VIEW
// for view View after having already aborted that view, and propagates
// the PREPAREs learned from it. The paper notes no counter certificate
// is required (§5.2.3); a trusted MAC provides authenticity.
type NewViewAck struct {
	Replica  uint32
	Pillar   uint32
	View     timeline.View
	Prepares []*Prepare
	Cert     trinx.Certificate

	dc digestCache
}

// MsgType implements Message.
func (*NewViewAck) MsgType() Type { return TypeNewViewAck }

func (a *NewViewAck) wire(w *wire) {
	w.u32(&a.Replica)
	w.u32(&a.Pillar)
	w.view(&a.View)
	list(w, &a.Prepares, 16, (*Prepare).wire)
	w.cert(&a.Cert)
}

// Digest returns the value the ack certificate covers.
func (a *NewViewAck) Digest() crypto.Digest {
	if d, ok := a.dc.cached(); ok {
		return d
	}
	e := NewEncoder(48)
	e.U32(a.Replica)
	e.U32(a.Pillar)
	e.U64(uint64(a.View))
	e.Len(len(a.Prepares))
	for _, p := range a.Prepares {
		d := p.Digest()
		e.Bytes32(d)
	}
	return a.dc.fill(crypto.HashParts([]byte("nva"), e.Bytes()))
}

// --- Suspicion -------------------------------------------------------------

// Suspect says Replica's watchdog expired in View: every protocol leaves
// a view only once f+1 distinct replicas suspect it. It consumes no
// trusted counter and carries a MAC authenticator, like a request.
type Suspect struct {
	Replica uint32
	View    timeline.View
	Auth    crypto.Authenticator

	dc digestCache
}

// MsgType implements Message.
func (*Suspect) MsgType() Type { return TypeSuspect }

func (s *Suspect) wire(w *wire) {
	w.u32(&s.Replica)
	w.view(&s.View)
	w.auth(&s.Auth)
}

// Digest returns the value the authenticator covers.
func (s *Suspect) Digest() crypto.Digest {
	if d, ok := s.dc.cached(); ok {
		return d
	}
	return s.dc.fill(crypto.HashParts([]byte("suspect"), crypto.U32(s.Replica), crypto.U64(uint64(s.View))))
}

// --- State transfer --------------------------------------------------------

// StateRequest asks a peer for the service state at its last stable
// checkpoint with order >= From.
type StateRequest struct {
	Replica uint32
	From    timeline.Order
}

// MsgType implements Message.
func (*StateRequest) MsgType() Type { return TypeStateRequest }

func (s *StateRequest) wire(w *wire) {
	w.u32(&s.Replica)
	w.order(&s.From)
}

// StateReply transfers a state snapshot together with the checkpoint
// quorum proving its correctness and the serialized client reply
// vector, allowing the fallen-behind replica to answer skipped requests
// (§5.2.2, "State and Return Value Confirmation"). Proof holds the
// protocol's own announcements, *Checkpoint or *PBFTCheckpoint.
type StateReply struct {
	Replica     uint32
	CkptOrder   timeline.Order
	Snapshot    []byte
	ReplyVector []byte
	Proof       []Message
}

// MsgType implements Message.
func (*StateReply) MsgType() Type { return TypeStateReply }

func (s *StateReply) wire(w *wire) {
	w.u32(&s.Replica)
	w.order(&s.CkptOrder)
	w.bytes(&s.Snapshot)
	w.bytes(&s.ReplyVector)
	w.checkpointProof(&s.Proof)
}
