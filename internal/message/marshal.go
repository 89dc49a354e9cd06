package message

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybster/internal/timeline"
)

// encoderPool recycles Encoder shells between Marshal calls. Only the
// struct is pooled — the output buffer is freshly allocated at its
// exact final size (computed by wireSize) and handed to the caller, so
// a marshalled frame never aliases pooled storage. With a warm pool a
// Marshal therefore costs exactly one allocation: the returned buffer.
var encoderPool sync.Pool

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
func MarshalHeadroom(m Message, headroom int) []byte {
	marshalTotal.Add(1)
	e, _ := encoderPool.Get().(*Encoder)
	if e == nil {
		e = &Encoder{}
	} else {
		marshalPoolHits.Add(1)
	}
	e.buf = make([]byte, headroom, headroom+1+wireSize(m))
	e.U8(uint8(m.MsgType()))
	switch v := m.(type) {
	case *Request:
		putRequest(e, v)
	case *Reply:
		putReply(e, v)
	case *Prepare:
		putPrepare(e, v)
	case *Commit:
		putCommit(e, v)
	case *Checkpoint:
		putCheckpoint(e, v)
	case *ViewChange:
		putViewChange(e, v)
	case *NewView:
		putNewView(e, v)
	case *NewViewAck:
		putNewViewAck(e, v)
	case *PrePrepare:
		putPrePrepare(e, v)
	case *PBFTPrepare:
		putPBFTPrepare(e, v)
	case *PBFTCommit:
		putPBFTCommit(e, v)
	case *PBFTCheckpoint:
		putPBFTCheckpoint(e, v)
	case *PBFTViewChange:
		putPBFTViewChange(e, v)
	case *PBFTNewView:
		putPBFTNewView(e, v)
	case *MinPrepare:
		putMinPrepare(e, v)
	case *MinCommit:
		putMinCommit(e, v)
	case *MinReqViewChange:
		putMinReqViewChange(e, v)
	case *MinViewChange:
		putMinViewChange(e, v)
	case *MinNewView:
		putMinNewView(e, v)
	case *StateRequest:
		putStateRequest(e, v)
	case *StateReply:
		putStateReply(e, v)
	default:
		panic(fmt.Sprintf("message: cannot marshal %T", m))
	}
	out := e.Bytes()
	e.buf = nil
	encoderPool.Put(e)
	return out
}

// Unmarshal parses a message serialized by Marshal.
func Unmarshal(buf []byte) (Message, error) {
	d := NewDecoder(buf)
	t := Type(d.U8())
	var m Message
	switch t {
	case TypeRequest:
		m = getRequest(d)
	case TypeReply:
		m = getReply(d)
	case TypePrepare:
		m = getPrepare(d)
	case TypeCommit:
		m = getCommit(d)
	case TypeCheckpoint:
		m = getCheckpoint(d)
	case TypeViewChange:
		m = getViewChange(d)
	case TypeNewView:
		m = getNewView(d)
	case TypeNewViewAck:
		m = getNewViewAck(d)
	case TypePrePrepare:
		m = getPrePrepare(d)
	case TypePBFTPrepare:
		m = getPBFTPrepare(d)
	case TypePBFTCommit:
		m = getPBFTCommit(d)
	case TypePBFTCheckpoint:
		m = getPBFTCheckpoint(d)
	case TypePBFTViewChange:
		m = getPBFTViewChange(d)
	case TypePBFTNewView:
		m = getPBFTNewView(d)
	case TypeMinPrepare:
		m = getMinPrepare(d)
	case TypeMinCommit:
		m = getMinCommit(d)
	case TypeMinReqViewChange:
		m = getMinReqViewChange(d)
	case TypeMinViewChange:
		m = getMinViewChange(d)
	case TypeMinNewView:
		m = getMinNewView(d)
	case TypeStateRequest:
		m = getStateRequest(d)
	case TypeStateReply:
		m = getStateReply(d)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrMalformed, t)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- client messages -------------------------------------------------------

func putRequest(e *Encoder, r *Request) {
	e.U32(r.Client)
	e.U64(r.Seq)
	e.Bool(r.ReadOnly)
	e.VarBytes(r.Payload)
	putAuth(e, r.Auth)
}

func getRequest(d *Decoder) *Request {
	return &Request{
		Client: d.U32(), Seq: d.U64(), ReadOnly: d.Bool(),
		Payload: cloneBytes(d.VarBytes()), Auth: getAuth(d),
	}
}

func putReply(e *Encoder, r *Reply) {
	e.U32(r.Replica)
	e.U32(r.Client)
	e.U64(r.Seq)
	e.VarBytes(r.Result)
	e.Bytes32(r.MAC)
}

func getReply(d *Decoder) *Reply {
	return &Reply{
		Replica: d.U32(), Client: d.U32(), Seq: d.U64(),
		Result: cloneBytes(d.VarBytes()), MAC: d.Bytes32(),
	}
}

func putRequestList(e *Encoder, reqs []*Request) {
	e.Len(len(reqs))
	for _, r := range reqs {
		putRequest(e, r)
	}
}

func getRequestList(d *Decoder) []*Request {
	n := d.Len(17)
	if d.Err() != nil || n == 0 {
		return nil
	}
	reqs := make([]*Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, getRequest(d))
		if d.Err() != nil {
			return nil
		}
	}
	return reqs
}

// --- Hybster messages --------------------------------------------------------

func putPrepare(e *Encoder, p *Prepare) {
	e.U64(uint64(p.View))
	e.U64(uint64(p.Order))
	putRequestList(e, p.Requests)
	putCert(e, p.Cert)
}

func getPrepare(d *Decoder) *Prepare {
	return &Prepare{
		View: getView(d), Order: getOrder(d),
		Requests: getRequestList(d), Cert: getCert(d),
	}
}

func putPrepareList(e *Encoder, ps []*Prepare) {
	e.Len(len(ps))
	for _, p := range ps {
		putPrepare(e, p)
	}
}

func getPrepareList(d *Decoder) []*Prepare {
	n := d.Len(16)
	if d.Err() != nil || n == 0 {
		return nil
	}
	ps := make([]*Prepare, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, getPrepare(d))
		if d.Err() != nil {
			return nil
		}
	}
	return ps
}

func putCommit(e *Encoder, c *Commit) {
	e.U64(uint64(c.View))
	e.U64(uint64(c.Order))
	e.U32(c.Replica)
	e.Bytes32(c.BatchDigest)
	putCert(e, c.Cert)
}

func getCommit(d *Decoder) *Commit {
	return &Commit{
		View: getView(d), Order: getOrder(d),
		Replica: d.U32(), BatchDigest: d.Bytes32(), Cert: getCert(d),
	}
}

func putCheckpoint(e *Encoder, c *Checkpoint) {
	e.U64(uint64(c.Order))
	e.U32(c.Replica)
	e.Bytes32(c.StateDigest)
	putCert(e, c.Cert)
}

func getCheckpoint(d *Decoder) *Checkpoint {
	return &Checkpoint{
		Order: getOrder(d), Replica: d.U32(),
		StateDigest: d.Bytes32(), Cert: getCert(d),
	}
}

func putCheckpointList(e *Encoder, cs []*Checkpoint) {
	e.Len(len(cs))
	for _, c := range cs {
		putCheckpoint(e, c)
	}
}

func getCheckpointList(d *Decoder) []*Checkpoint {
	n := d.Len(44)
	if d.Err() != nil || n == 0 {
		return nil
	}
	cs := make([]*Checkpoint, 0, n)
	for i := 0; i < n; i++ {
		cs = append(cs, getCheckpoint(d))
		if d.Err() != nil {
			return nil
		}
	}
	return cs
}

func putViewChange(e *Encoder, v *ViewChange) {
	e.U32(v.Replica)
	e.U32(v.Pillar)
	e.U64(uint64(v.From))
	e.U64(uint64(v.To))
	e.U64(uint64(v.CkptOrder))
	e.Bytes32(v.CkptDigest)
	putCheckpointList(e, v.CkptProof)
	putPrepareList(e, v.Prepares)
	putCert(e, v.Cert)
}

func getViewChange(d *Decoder) *ViewChange {
	return &ViewChange{
		Replica: d.U32(), Pillar: d.U32(),
		From: getView(d), To: getView(d),
		CkptOrder: getOrder(d), CkptDigest: d.Bytes32(),
		CkptProof: getCheckpointList(d), Prepares: getPrepareList(d),
		Cert: getCert(d),
	}
}

func putViewChangeList(e *Encoder, vcs []*ViewChange) {
	e.Len(len(vcs))
	for _, vc := range vcs {
		putViewChange(e, vc)
	}
}

func getViewChangeList(d *Decoder) []*ViewChange {
	n := d.Len(64)
	if d.Err() != nil || n == 0 {
		return nil
	}
	vcs := make([]*ViewChange, 0, n)
	for i := 0; i < n; i++ {
		vcs = append(vcs, getViewChange(d))
		if d.Err() != nil {
			return nil
		}
	}
	return vcs
}

func putNewViewAck(e *Encoder, a *NewViewAck) {
	e.U32(a.Replica)
	e.U32(a.Pillar)
	e.U64(uint64(a.View))
	putPrepareList(e, a.Prepares)
	putCert(e, a.Cert)
}

func getNewViewAck(d *Decoder) *NewViewAck {
	return &NewViewAck{
		Replica: d.U32(), Pillar: d.U32(), View: getView(d),
		Prepares: getPrepareList(d), Cert: getCert(d),
	}
}

func putNewView(e *Encoder, n *NewView) {
	e.U64(uint64(n.View))
	e.U32(n.Pillar)
	putViewChangeList(e, n.VCs)
	e.Len(len(n.Acks))
	for _, a := range n.Acks {
		putNewViewAck(e, a)
	}
	putPrepareList(e, n.Prepares)
	putCert(e, n.Cert)
}

func getNewView(d *Decoder) *NewView {
	nv := &NewView{View: getView(d), Pillar: d.U32(), VCs: getViewChangeList(d)}
	nAcks := d.Len(48)
	if d.Err() != nil {
		return nv
	}
	for i := 0; i < nAcks; i++ {
		nv.Acks = append(nv.Acks, getNewViewAck(d))
		if d.Err() != nil {
			return nv
		}
	}
	nv.Prepares = getPrepareList(d)
	nv.Cert = getCert(d)
	return nv
}

// --- state transfer ----------------------------------------------------------

func putStateRequest(e *Encoder, s *StateRequest) {
	e.U32(s.Replica)
	e.U64(uint64(s.From))
}

func getStateRequest(d *Decoder) *StateRequest {
	return &StateRequest{Replica: d.U32(), From: getOrder(d)}
}

func putStateReply(e *Encoder, s *StateReply) {
	e.U32(s.Replica)
	e.U64(uint64(s.CkptOrder))
	e.VarBytes(s.Snapshot)
	e.VarBytes(s.ReplyVector)
	putCheckpointList(e, s.Proof)
}

func getStateReply(d *Decoder) *StateReply {
	return &StateReply{
		Replica: d.U32(), CkptOrder: getOrder(d),
		Snapshot:    cloneBytes(d.VarBytes()),
		ReplyVector: cloneBytes(d.VarBytes()),
		Proof:       getCheckpointList(d),
	}
}

// getView decodes a view number, rejecting values outside the packed
// field width: wire input must never be able to make timeline.Pack
// panic later.
func getView(d *Decoder) timeline.View {
	v := timeline.View(d.U64())
	if v > timeline.MaxView && d.err == nil {
		d.err = fmt.Errorf("%w: view %d exceeds field width", ErrMalformed, v)
	}
	return v
}

// getOrder decodes an order number, with the same bound check as
// getView.
func getOrder(d *Decoder) timeline.Order {
	o := timeline.Order(d.U64())
	if o > timeline.MaxOrder && d.err == nil {
		d.err = fmt.Errorf("%w: order %d exceeds field width", ErrMalformed, o)
	}
	return o
}

// cloneBytes copies a decoded slice out of the shared input buffer; nil
// stays nil.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func putProof(e *Encoder, p *Proof) {
	if p.HasTCert() {
		e.U8(2)
		putCert(e, p.TCert)
	} else {
		e.U8(1)
		putAuth(e, p.Auth)
	}
}

func getProof(d *Decoder) Proof {
	switch d.U8() {
	case 2:
		return Proof{TCert: getCert(d)}
	case 1:
		return Proof{Auth: getAuth(d)}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("%w: unknown proof variant", ErrMalformed)
		}
		return Proof{}
	}
}

// --- PBFT messages ------------------------------------------------------------

func putPrePrepare(e *Encoder, p *PrePrepare) {
	e.U64(uint64(p.View))
	e.U64(uint64(p.Order))
	putRequestList(e, p.Requests)
	putProof(e, &p.Proof)
}

func getPrePrepare(d *Decoder) *PrePrepare {
	return &PrePrepare{
		View: getView(d), Order: getOrder(d),
		Requests: getRequestList(d), Proof: getProof(d),
	}
}

func putPBFTPrepare(e *Encoder, p *PBFTPrepare) {
	e.U64(uint64(p.View))
	e.U64(uint64(p.Order))
	e.U32(p.Replica)
	e.Bytes32(p.BatchDigest)
	putProof(e, &p.Proof)
}

func getPBFTPrepare(d *Decoder) *PBFTPrepare {
	return &PBFTPrepare{
		View: getView(d), Order: getOrder(d),
		Replica: d.U32(), BatchDigest: d.Bytes32(), Proof: getProof(d),
	}
}

func putPBFTCommit(e *Encoder, c *PBFTCommit) {
	e.U64(uint64(c.View))
	e.U64(uint64(c.Order))
	e.U32(c.Replica)
	e.Bytes32(c.BatchDigest)
	putProof(e, &c.Proof)
}

func getPBFTCommit(d *Decoder) *PBFTCommit {
	return &PBFTCommit{
		View: getView(d), Order: getOrder(d),
		Replica: d.U32(), BatchDigest: d.Bytes32(), Proof: getProof(d),
	}
}

func putPBFTCheckpoint(e *Encoder, c *PBFTCheckpoint) {
	e.U64(uint64(c.Order))
	e.U32(c.Replica)
	e.Bytes32(c.StateDigest)
	putProof(e, &c.Proof)
}

func getPBFTCheckpoint(d *Decoder) *PBFTCheckpoint {
	return &PBFTCheckpoint{
		Order: getOrder(d), Replica: d.U32(),
		StateDigest: d.Bytes32(), Proof: getProof(d),
	}
}

func putPBFTViewChange(e *Encoder, v *PBFTViewChange) {
	e.U32(v.Replica)
	e.U64(uint64(v.View))
	e.U64(uint64(v.CkptOrder))
	e.Len(len(v.CkptProof))
	for _, c := range v.CkptProof {
		putPBFTCheckpoint(e, c)
	}
	e.Len(len(v.Prepared))
	for _, pp := range v.Prepared {
		putPrePrepare(e, pp.PrePrepare)
		e.Len(len(pp.Prepares))
		for _, p := range pp.Prepares {
			putPBFTPrepare(e, p)
		}
	}
	putProof(e, &v.Proof)
}

func getPBFTViewChange(d *Decoder) *PBFTViewChange {
	v := &PBFTViewChange{
		Replica: d.U32(), View: getView(d),
		CkptOrder: getOrder(d),
	}
	nCk := d.Len(45)
	for i := 0; i < nCk && d.Err() == nil; i++ {
		v.CkptProof = append(v.CkptProof, getPBFTCheckpoint(d))
	}
	nPrep := d.Len(16)
	for i := 0; i < nPrep && d.Err() == nil; i++ {
		pp := PreparedProof{PrePrepare: getPrePrepare(d)}
		nP := d.Len(53)
		for j := 0; j < nP && d.Err() == nil; j++ {
			pp.Prepares = append(pp.Prepares, getPBFTPrepare(d))
		}
		v.Prepared = append(v.Prepared, pp)
	}
	v.Proof = getProof(d)
	return v
}

func putPBFTNewView(e *Encoder, n *PBFTNewView) {
	e.U64(uint64(n.View))
	e.Len(len(n.VCs))
	for _, vc := range n.VCs {
		putPBFTViewChange(e, vc)
	}
	e.Len(len(n.PrePrepares))
	for _, p := range n.PrePrepares {
		putPrePrepare(e, p)
	}
	putProof(e, &n.Proof)
}

func getPBFTNewView(d *Decoder) *PBFTNewView {
	n := &PBFTNewView{View: getView(d)}
	nVC := d.Len(64)
	for i := 0; i < nVC && d.Err() == nil; i++ {
		n.VCs = append(n.VCs, getPBFTViewChange(d))
	}
	nPP := d.Len(16)
	for i := 0; i < nPP && d.Err() == nil; i++ {
		n.PrePrepares = append(n.PrePrepares, getPrePrepare(d))
	}
	n.Proof = getProof(d)
	return n
}

// --- MinBFT messages ------------------------------------------------------------

func putMinPrepare(e *Encoder, p *MinPrepare) {
	e.U64(uint64(p.View))
	putRequestList(e, p.Requests)
	putUI(e, p.UI)
}

func getMinPrepare(d *Decoder) *MinPrepare {
	return &MinPrepare{
		View: getView(d), Requests: getRequestList(d), UI: getUI(d),
	}
}

func putMinCommit(e *Encoder, c *MinCommit) {
	e.U64(uint64(c.View))
	e.U32(c.Replica)
	e.Bytes32(c.BatchDigest)
	if c.Prepare != nil {
		e.Bool(true)
		putMinPrepare(e, c.Prepare)
	} else {
		e.Bool(false)
	}
	putUI(e, c.PrepareUI)
	putUI(e, c.UI)
}

func getMinCommit(d *Decoder) *MinCommit {
	c := &MinCommit{View: getView(d), Replica: d.U32(), BatchDigest: d.Bytes32()}
	if d.Bool() {
		c.Prepare = getMinPrepare(d)
	}
	c.PrepareUI = getUI(d)
	c.UI = getUI(d)
	return c
}

func putMinReqViewChange(e *Encoder, r *MinReqViewChange) {
	e.U32(r.Replica)
	e.U64(uint64(r.View))
	putAuth(e, r.Auth)
}

func getMinReqViewChange(d *Decoder) *MinReqViewChange {
	return &MinReqViewChange{Replica: d.U32(), View: getView(d), Auth: getAuth(d)}
}

func putMinViewChange(e *Encoder, v *MinViewChange) {
	e.U32(v.Replica)
	e.U64(uint64(v.View))
	e.U64(uint64(v.CkptOrder))
	putCheckpointList(e, v.CkptProof)
	e.U64(v.HistBase)
	e.Len(len(v.History))
	for _, h := range v.History {
		e.VarBytes(h)
	}
	e.U64(uint64(v.AnchorView))
	e.U64(v.AnchorOrder)
	e.U64(v.AnchorCounter)
	putUI(e, v.UI)
}

func getMinViewChange(d *Decoder) *MinViewChange {
	v := &MinViewChange{
		Replica: d.U32(), View: getView(d),
		CkptOrder: getOrder(d), CkptProof: getCheckpointList(d),
		HistBase: d.U64(),
	}
	n := d.Len(4)
	for i := 0; i < n && d.Err() == nil; i++ {
		v.History = append(v.History, cloneBytes(d.VarBytes()))
	}
	v.AnchorView = getView(d)
	v.AnchorOrder = d.U64()
	v.AnchorCounter = d.U64()
	v.UI = getUI(d)
	return v
}

func putMinNewView(e *Encoder, n *MinNewView) {
	e.U64(uint64(n.View))
	e.Len(len(n.VCs))
	for _, vc := range n.VCs {
		putMinViewChange(e, vc)
	}
	putUI(e, n.UI)
}

func getMinNewView(d *Decoder) *MinNewView {
	n := &MinNewView{View: getView(d)}
	c := d.Len(64)
	for i := 0; i < c && d.Err() == nil; i++ {
		n.VCs = append(n.VCs, getMinViewChange(d))
	}
	n.UI = getUI(d)
	return n
}
