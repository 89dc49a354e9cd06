package message

import (
	"hybster/internal/crypto"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
	"hybster/internal/usig"
)

// Proof authenticates a baseline-protocol message. Exactly one variant
// is populated: PBFTcop uses MAC authenticators (Auth), HybridPBFT uses
// TrInX trusted MACs (TCert) — the §6 configurations.
type Proof struct {
	Auth  crypto.Authenticator
	TCert trinx.Certificate
}

// HasTCert reports whether the trusted-MAC variant is populated.
func (p *Proof) HasTCert() bool { return p.TCert.Kind != 0 }

// wire is the variant tag (2 = TCert, 1 = Auth) and the variant.
func (p *Proof) wire(w *wire) {
	tag := uint8(1)
	if p.HasTCert() {
		tag = 2
	}
	w.u8(&tag)
	switch tag {
	case 2:
		w.cert(&p.TCert)
	case 1:
		w.auth(&p.Auth)
	default:
		w.fail("unknown proof variant")
	}
}

// --- PBFT (three-phase, n = 3f+1), consensus-oriented parallelization ----

// PrePrepare is the PBFT leader's proposal of a request batch for
// (View, Order) — the first of three phases.
type PrePrepare struct {
	View     timeline.View
	Order    timeline.Order
	Requests []*Request
	Proof    Proof

	dc  digestCache
	bdc digestCache
}

// MsgType implements Message.
func (*PrePrepare) MsgType() Type { return TypePrePrepare }

func (p *PrePrepare) wire(w *wire) {
	w.view(&p.View)
	w.order(&p.Order)
	list(w, &p.Requests, 17, (*Request).wire)
	p.Proof.wire(w)
}

// BatchDigest returns the digest of the proposed batch, memoized on
// first use.
func (p *PrePrepare) BatchDigest() crypto.Digest {
	if d, ok := p.bdc.cached(); ok {
		return d
	}
	return p.bdc.fill(BatchDigest(p.Requests))
}

// Digest returns the value the proof covers.
func (p *PrePrepare) Digest() crypto.Digest {
	if d, ok := p.dc.cached(); ok {
		return d
	}
	bd := p.BatchDigest()
	return p.dc.fill(crypto.HashParts([]byte("pprep"),
		crypto.U64(uint64(timeline.Pack(p.View, p.Order))), bd[:]))
}

// PBFTPrepare is the second-phase acknowledgment of a PrePrepare.
type PBFTPrepare struct {
	View        timeline.View
	Order       timeline.Order
	Replica     uint32
	BatchDigest crypto.Digest
	Proof       Proof

	dc digestCache
}

// MsgType implements Message.
func (*PBFTPrepare) MsgType() Type { return TypePBFTPrepare }

func (p *PBFTPrepare) wire(w *wire) {
	w.view(&p.View)
	w.order(&p.Order)
	w.u32(&p.Replica)
	w.b32((*[32]byte)(&p.BatchDigest))
	p.Proof.wire(w)
}

// Digest returns the value the proof covers.
func (p *PBFTPrepare) Digest() crypto.Digest {
	if d, ok := p.dc.cached(); ok {
		return d
	}
	return p.dc.fill(crypto.HashParts([]byte("pbftp"),
		crypto.U64(uint64(timeline.Pack(p.View, p.Order))),
		crypto.U32(p.Replica), p.BatchDigest[:]))
}

// PBFTCommit is the third-phase message; a quorum of commits makes the
// instance eligible for execution.
type PBFTCommit struct {
	View        timeline.View
	Order       timeline.Order
	Replica     uint32
	BatchDigest crypto.Digest
	Proof       Proof

	dc digestCache
}

// MsgType implements Message.
func (*PBFTCommit) MsgType() Type { return TypePBFTCommit }

func (c *PBFTCommit) wire(w *wire) {
	w.view(&c.View)
	w.order(&c.Order)
	w.u32(&c.Replica)
	w.b32((*[32]byte)(&c.BatchDigest))
	c.Proof.wire(w)
}

// Digest returns the value the proof covers.
func (c *PBFTCommit) Digest() crypto.Digest {
	if d, ok := c.dc.cached(); ok {
		return d
	}
	return c.dc.fill(crypto.HashParts([]byte("pbftc"),
		crypto.U64(uint64(timeline.Pack(c.View, c.Order))),
		crypto.U32(c.Replica), c.BatchDigest[:]))
}

// PBFTCheckpoint announces a stable state snapshot in the PBFT
// baseline.
type PBFTCheckpoint struct {
	Order       timeline.Order
	Replica     uint32
	StateDigest crypto.Digest
	Proof       Proof

	dc digestCache
}

// MsgType implements Message.
func (*PBFTCheckpoint) MsgType() Type { return TypePBFTCheckpoint }

func (c *PBFTCheckpoint) wire(w *wire) {
	w.order(&c.Order)
	w.u32(&c.Replica)
	w.b32((*[32]byte)(&c.StateDigest))
	c.Proof.wire(w)
}

// Digest returns the value the proof covers.
func (c *PBFTCheckpoint) Digest() crypto.Digest {
	if d, ok := c.dc.cached(); ok {
		return d
	}
	return c.dc.fill(crypto.HashParts([]byte("pbftck"),
		crypto.U64(uint64(c.Order)), crypto.U32(c.Replica), c.StateDigest[:]))
}

// PreparedProof is PBFT's quorum certificate that an instance reached
// the prepared state: the PRE-PREPARE plus 2f matching PREPAREs.
type PreparedProof struct {
	PrePrepare *PrePrepare
	Prepares   []*PBFTPrepare
}

func (pp *PreparedProof) wire(w *wire) {
	if w.mode == wireGet {
		pp.PrePrepare = new(PrePrepare)
	}
	pp.PrePrepare.wire(w)
	list(w, &pp.Prepares, 53, (*PBFTPrepare).wire)
}

// PBFTViewChange announces that the sender moved to view View and
// carries its last stable checkpoint proof plus a PreparedProof for
// every instance it prepared above the checkpoint.
type PBFTViewChange struct {
	Replica   uint32
	View      timeline.View
	CkptOrder timeline.Order
	CkptProof []*PBFTCheckpoint
	Prepared  []PreparedProof
	Proof     Proof

	dc digestCache
}

// MsgType implements Message.
func (*PBFTViewChange) MsgType() Type { return TypePBFTViewChange }

func (v *PBFTViewChange) wire(w *wire) {
	w.u32(&v.Replica)
	w.view(&v.View)
	w.order(&v.CkptOrder)
	list(w, &v.CkptProof, 45, (*PBFTCheckpoint).wire)
	values(w, &v.Prepared, 16, (*PreparedProof).wire)
	v.Proof.wire(w)
}

// Digest returns the value the proof covers.
func (v *PBFTViewChange) Digest() crypto.Digest {
	if d, ok := v.dc.cached(); ok {
		return d
	}
	e := NewEncoder(64)
	e.U32(v.Replica)
	e.U64(uint64(v.View))
	e.U64(uint64(v.CkptOrder))
	e.Len(len(v.CkptProof))
	for _, c := range v.CkptProof {
		d := c.Digest()
		e.Bytes32(d)
	}
	e.Len(len(v.Prepared))
	for _, pp := range v.Prepared {
		d := pp.PrePrepare.Digest()
		e.Bytes32(d)
		e.Len(len(pp.Prepares))
		for _, p := range pp.Prepares {
			pd := p.Digest()
			e.Bytes32(pd)
		}
	}
	return v.dc.fill(crypto.HashParts([]byte("pbftvc"), e.Bytes()))
}

// PBFTNewView is the new leader's view installation message: the quorum
// of VIEW-CHANGEs and the re-issued PRE-PREPAREs.
type PBFTNewView struct {
	View        timeline.View
	VCs         []*PBFTViewChange
	PrePrepares []*PrePrepare
	Proof       Proof

	dc digestCache
}

// MsgType implements Message.
func (*PBFTNewView) MsgType() Type { return TypePBFTNewView }

func (n *PBFTNewView) wire(w *wire) {
	w.view(&n.View)
	list(w, &n.VCs, 64, (*PBFTViewChange).wire)
	list(w, &n.PrePrepares, 16, (*PrePrepare).wire)
	n.Proof.wire(w)
}

// Digest returns the value the proof covers.
func (n *PBFTNewView) Digest() crypto.Digest {
	if d, ok := n.dc.cached(); ok {
		return d
	}
	e := NewEncoder(64)
	e.U64(uint64(n.View))
	e.Len(len(n.VCs))
	for _, vc := range n.VCs {
		d := vc.Digest()
		e.Bytes32(d)
	}
	e.Len(len(n.PrePrepares))
	for _, p := range n.PrePrepares {
		d := p.Digest()
		e.Bytes32(d)
	}
	return n.dc.fill(crypto.HashParts([]byte("pbftnv"), e.Bytes()))
}

// --- MinBFT (two-phase, sequential, USIG) ---------------------------------

// MinPrepare is the MinBFT leader's proposal. There is no explicit
// order number: the total order is determined by the counter value
// inside the leader's UI (§4.4 of the Hybster paper).
type MinPrepare struct {
	View     timeline.View
	Requests []*Request
	UI       usig.UI

	dc  digestCache
	bdc digestCache
}

// MsgType implements Message.
func (*MinPrepare) MsgType() Type { return TypeMinPrepare }

func (p *MinPrepare) wire(w *wire) {
	w.view(&p.View)
	list(w, &p.Requests, 17, (*Request).wire)
	w.ui(&p.UI)
}

// BatchDigest returns the digest of the proposed batch, memoized on
// first use.
func (p *MinPrepare) BatchDigest() crypto.Digest {
	if d, ok := p.bdc.cached(); ok {
		return d
	}
	return p.bdc.fill(BatchDigest(p.Requests))
}

// Digest returns the value the UI covers.
func (p *MinPrepare) Digest() crypto.Digest {
	if d, ok := p.dc.cached(); ok {
		return d
	}
	bd := p.BatchDigest()
	return p.dc.fill(crypto.HashParts([]byte("minp"), crypto.U64(uint64(p.View)), bd[:]))
}

// MinViewChange is MinBFT's VIEW-CHANGE: the last stable checkpoint
// plus the complete history of ordering messages the replica sent
// since that checkpoint — each history entry is a marshaled message
// whose own UI proves its place in the sender's counter sequence. The
// VIEW-CHANGE consumes the next counter value itself, sealing the
// history: HistBase is the sender's counter at the checkpoint, and
// entries must cover (HistBase, UI.Counter) without gaps. This is the
// history-based design whose unbounded growth §4.4 of the Hybster
// paper criticizes.
type MinViewChange struct {
	Replica   uint32
	View      timeline.View // target view
	CkptOrder timeline.Order
	CkptProof []*Checkpoint
	HistBase  uint64
	History   [][]byte
	// AnchorView/AnchorOrder/AnchorCounter record the sender's order
	// anchoring for the last view it participated in: the leader
	// prepare with UI counter AnchorCounter was assigned order
	// AnchorOrder. Receivers need the anchor to translate history
	// counters back into order numbers — MinBFT has no explicit order
	// numbers (§4.4), which is precisely what makes its view change
	// intricate.
	AnchorView    timeline.View
	AnchorOrder   uint64
	AnchorCounter uint64
	UI            usig.UI

	dc digestCache
}

// MsgType implements Message.
func (*MinViewChange) MsgType() Type { return TypeMinViewChange }

func (v *MinViewChange) wire(w *wire) {
	w.u32(&v.Replica)
	w.view(&v.View)
	w.order(&v.CkptOrder)
	list(w, &v.CkptProof, 44, (*Checkpoint).wire)
	w.u64(&v.HistBase)
	values(w, &v.History, 4, func(h *[]byte, w *wire) { w.bytes(h) })
	w.view(&v.AnchorView)
	w.u64(&v.AnchorOrder)
	w.u64(&v.AnchorCounter)
	w.ui(&v.UI)
}

// Digest returns the value the UI covers.
func (v *MinViewChange) Digest() crypto.Digest {
	if d, ok := v.dc.cached(); ok {
		return d
	}
	e := NewEncoder(64)
	e.U32(v.Replica)
	e.U64(uint64(v.View))
	e.U64(uint64(v.CkptOrder))
	e.Len(len(v.CkptProof))
	for _, c := range v.CkptProof {
		d := c.Digest()
		e.Bytes32(d)
	}
	e.U64(v.HistBase)
	e.Len(len(v.History))
	for _, h := range v.History {
		d := crypto.Hash(h)
		e.Bytes32(d)
	}
	e.U64(uint64(v.AnchorView))
	e.U64(v.AnchorOrder)
	e.U64(v.AnchorCounter)
	return v.dc.fill(crypto.HashParts([]byte("minvc"), e.Bytes()))
}

// MinNewView is MinBFT's NEW-VIEW: the f+1 VIEW-CHANGEs the new leader
// used; every replica recomputes the initial state of the new view
// from them.
type MinNewView struct {
	View timeline.View
	VCs  []*MinViewChange
	UI   usig.UI

	dc digestCache
}

// MsgType implements Message.
func (*MinNewView) MsgType() Type { return TypeMinNewView }

func (n *MinNewView) wire(w *wire) {
	w.view(&n.View)
	list(w, &n.VCs, 64, (*MinViewChange).wire)
	w.ui(&n.UI)
}

// Digest returns the value the UI covers.
func (n *MinNewView) Digest() crypto.Digest {
	if d, ok := n.dc.cached(); ok {
		return d
	}
	e := NewEncoder(64)
	e.U64(uint64(n.View))
	e.Len(len(n.VCs))
	for _, vc := range n.VCs {
		d := vc.Digest()
		e.Bytes32(d)
	}
	return n.dc.fill(crypto.HashParts([]byte("minnv"), e.Bytes()))
}

// MinCommit acknowledges a MinPrepare. As in MinBFT, the commit
// embeds the acknowledged PREPARE — that is how proposals reach the
// histories of followers and survive a leader crash (§4.4): a
// follower's VIEW-CHANGE history consists of commits, and each commit
// carries the proposal it answered.
type MinCommit struct {
	View        timeline.View
	Replica     uint32
	BatchDigest crypto.Digest
	Prepare     *MinPrepare
	PrepareUI   usig.UI
	UI          usig.UI

	dc digestCache
}

// MsgType implements Message.
func (*MinCommit) MsgType() Type { return TypeMinCommit }

// wire: the embedded PREPARE is optional, announced by a presence byte.
func (c *MinCommit) wire(w *wire) {
	w.view(&c.View)
	w.u32(&c.Replica)
	w.b32((*[32]byte)(&c.BatchDigest))
	has := c.Prepare != nil
	w.flag(&has)
	if has {
		if w.mode == wireGet {
			c.Prepare = new(MinPrepare)
		}
		c.Prepare.wire(w)
	}
	w.ui(&c.PrepareUI)
	w.ui(&c.UI)
}

// Digest returns the value the commit's UI covers.
func (c *MinCommit) Digest() crypto.Digest {
	if d, ok := c.dc.cached(); ok {
		return d
	}
	return c.dc.fill(crypto.HashParts([]byte("minc"),
		crypto.U64(uint64(c.View)), crypto.U32(c.Replica),
		crypto.U64(c.PrepareUI.Counter), c.BatchDigest[:]))
}
