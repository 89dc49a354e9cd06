package minbft

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/usig"
)

// This file implements MinBFT's history-based view change, the design
// §4.4 of the Hybster paper critiques: to change views, a replica must
// present the *complete history* of ordering messages it sent since
// its last stable checkpoint, sealed by its USIG counter; if electing
// a leader takes several rounds, each VIEW-CHANGE joins the history of
// the next one, so the state replicas must retain — and the messages
// they exchange — grow without a protocol-defined bound. The
// unbounded-history tests measure exactly that growth against
// Hybster's window-bounded view change.
//
// Scope: the implementation covers crash-fault recovery (the leader
// stops; followers elect the next view and carry prepared instances
// over). Two simplifications are documented in DESIGN.md: order
// anchoring is carried in the VIEW-CHANGE (AnchorView/Order/Counter)
// because MinBFT's counters-as-orders need a reference point, and a
// Byzantine leader's fresh re-proposals are constrained by the
// detection regime (UI sequence), not re-validated against the quorum
// as Hybster's equivocation prevention allows.

// sentEntry is one history record: a message this replica sent under
// UI counter "counter" while working on order "order".
type sentEntry struct {
	counter uint64
	order   timeline.Order
	raw     []byte
}

// histStubTag marks a compact history entry standing in for a sent
// VIEW-CHANGE or NEW-VIEW. Recording those messages by value is what
// turns §4.4's linear history growth geometric: a VIEW-CHANGE embeds
// the full history, the history would embed every earlier
// VIEW-CHANGE's bytes, and a NEW-VIEW embeds f+1 such VIEW-CHANGEs —
// after ~10 fruitless election rounds single messages reach hundreds
// of megabytes and marshal/hash/verify each take seconds, starving
// the protocol loops outright (observed in chaos goroutine dumps).
// The stub records only the entry's UI and payload digest: the UI
// proves the replica's USIG signed exactly that digest at that
// counter, which is the same fact re-hashing the full bytes would
// establish, and view-change transfer never reads VIEW-CHANGE or
// NEW-VIEW contents (re-proposals come from PREPARE/COMMIT entries).
// Trade-off, documented per the crash-fault scope above: a Byzantine
// replica could mislabel a PREPARE or COMMIT as a stub and conceal
// its content while keeping the counter chain gapless; full MinBFT
// closes that by shipping every payload. Correct replicas stub only
// genuine VIEW-CHANGE/NEW-VIEW entries.
//
// The tag byte sits outside the codec's type-tag space, so a stub can
// never be confused with a marshaled message (message.Unmarshal
// rejects it, and real frames start with a small type tag).
const histStubTag = 0xFF

// histStubLen is the fixed stub layout: tag, issuer, counter, MAC,
// payload digest.
const histStubLen = 1 + 4 + 8 + crypto.MACSize + crypto.DigestSize

func encodeHistStub(ui usig.UI, d crypto.Digest) []byte {
	b := make([]byte, histStubLen)
	b[0] = histStubTag
	binary.LittleEndian.PutUint32(b[1:], ui.Issuer)
	binary.LittleEndian.PutUint64(b[5:], ui.Counter)
	copy(b[13:], ui.MAC[:])
	copy(b[13+crypto.MACSize:], d[:])
	return b
}

func decodeHistStub(raw []byte) (ui usig.UI, d crypto.Digest, ok bool) {
	if len(raw) != histStubLen || raw[0] != histStubTag {
		return usig.UI{}, crypto.Digest{}, false
	}
	ui.Issuer = binary.LittleEndian.Uint32(raw[1:])
	ui.Counter = binary.LittleEndian.Uint64(raw[5:])
	copy(ui.MAC[:], raw[13:])
	copy(d[:], raw[13+crypto.MACSize:])
	return ui, d, true
}

// recordSent appends a UI-consuming message to the history log and to
// the bounded retransmission ring. View-change-layer messages are
// logged as compact stubs (see histStubTag); everything else is
// logged in full because a NEW-VIEW leader extracts re-proposals from
// the PREPARE and COMMIT payloads.
func (e *Engine) recordSent(ui usig.UI, order timeline.Order, m message.Message) {
	e.lastSent = ui.Counter
	var raw []byte
	switch v := m.(type) {
	case *message.MinViewChange:
		raw = encodeHistStub(ui, v.Digest())
	case *message.MinNewView:
		raw = encodeHistStub(ui, v.Digest())
	default:
		raw = message.Marshal(m)
	}
	e.sentLog = append(e.sentLog, sentEntry{counter: ui.Counter, order: order, raw: raw})
	e.historyChanged()
	if cap := 4 * int(e.Cfg.WindowSize); len(e.resend) >= cap {
		e.resend = append(e.resend[:0], e.resend[len(e.resend)-cap+1:]...)
	}
	e.resend = append(e.resend, m)
}

// pruneHistory drops the history prefix covered by a stable checkpoint
// at order o and advances the history base counter.
func (e *Engine) pruneHistory(o timeline.Order) {
	i := 0
	for i < len(e.sentLog) && e.sentLog[i].order <= o {
		e.histBase = e.sentLog[i].counter
		i++
	}
	e.sentLog = append(e.sentLog[:0], e.sentLog[i:]...)
	e.historyChanged()
}

// historyChanged publishes len(sentLog) to its gauge.
func (e *Engine) historyChanged() {
	e.histLenG.Set(int64(len(e.sentLog)))
}

// historyBytes returns the raw history entries for a VIEW-CHANGE.
func (e *Engine) historyBytes() [][]byte {
	out := make([][]byte, len(e.sentLog))
	for i, s := range e.sentLog {
		out[i] = s.raw
	}
	return out
}

// --- suspicion ---

func (e *Engine) handleTick() {
	now := e.Now()
	if exec := e.LastExecuted(); exec != e.execSeen {
		// Execution progressed: the clock restarts while work is
		// pending and stops, suspicions fresh, when none is.
		e.execSeen = exec
		if e.suspectSince = now; e.Stalled() == 0 {
			e.suspectSince = time.Time{}
			e.Relax()
		}
	}
	ps := e.suspectSince
	// Execution fell behind the stable low-watermark: the batches it
	// is missing are garbage-collected and will never be re-delivered,
	// so keep asking for transferred state (replies can be lost).
	e.ck.CatchUp()
	// Progress stalled for half a suspicion period: assume messages
	// were lost and re-multicast the recent send window so peers can
	// fill counter gaps (see the resend field).
	if !ps.IsZero() && now.Sub(ps) > e.Cfg.ViewChangeTimeout/2 &&
		now.Sub(e.lastResend) >= e.Cfg.ViewChangeTimeout/2 {
		e.lastResend = now
		e.ord.Retransmits.Add(uint64(len(e.resend)))
		e.Met.Trace(telemetry.EvRetransmit, uint64(e.View()), 0, 0, "")
		for _, m := range e.resend {
			transport.Multicast(e.Ep, e.Cfg.N, m)
		}
	}
	// The suspicion clock ran out, in the installed or the pending view:
	// suspect it, with growing patience. It is never walked forward here:
	// every election round compounds the next VIEW-CHANGE (§4.4).
	if (e.Pending != 0 || !ps.IsZero()) && now.Sub(ps) > e.Patience() {
		e.suspectSince = now
		e.Escalate()
		e.Suspect()
	}
	// Retransmit our own VIEW-CHANGE while the view is pending — rate-
	// limited, because a history-bearing VIEW-CHANGE can be enormous
	// after repeated elections (§4.4) and peers that already consumed
	// its counter replay-drop every copy anyway.
	if vc := e.vcs[e.Pending][e.ID()]; e.Pending != 0 && vc != nil && now.Sub(e.lastVCResend) >= e.Cfg.ViewChangeTimeout/2 {
		e.lastVCResend = now
		transport.Multicast(e.Ep, e.Cfg.N, vc)
	}
}

// noteWorkLocked marks outstanding work for the readiness probe and
// starts the suspicion clock (run loop only).
func (e *Engine) noteWorkLocked() {
	e.NoteWork()
	if e.suspectSince.IsZero() {
		e.suspectSince = e.Now()
	}
}

// --- VIEW-CHANGE ---

func (e *Engine) sendViewChange(target timeline.View) {
	vc := &message.MinViewChange{
		Replica:       e.ID(),
		View:          target,
		CkptOrder:     e.ck.Stable().Order,
		CkptProof:     e.ck.Stable().Proof,
		HistBase:      e.histBase,
		History:       e.historyBytes(),
		AnchorView:    e.anchorView,
		AnchorOrder:   uint64(e.anchorOrder),
		AnchorCounter: e.anchorCounter,
	}
	ui, err := e.sig.CreateUI(vc.Digest())
	if err != nil {
		return
	}
	vc.UI = ui
	// The VIEW-CHANGE itself becomes part of the history — the §4.4
	// growth: every unsuccessful election round compounds the next
	// VIEW-CHANGE.
	e.recordSent(ui, e.nextOrder, vc)

	e.Pending = target
	e.suspectSince = e.Now()
	e.storeVC(vc)
	transport.Multicast(e.Ep, e.Cfg.N, vc)
	e.maybeNewView(target)
}

// storeVC files vc, a peer's unless it already sent one for that view;
// our own newest replaces an earlier one for a view we installed below
// and then aborted into again.
func (e *Engine) storeVC(vc *message.MinViewChange) {
	byReplica, ok := e.vcs[vc.View]
	if !ok {
		byReplica = make(map[uint32]*message.MinViewChange)
		e.vcs[vc.View] = byReplica
	}
	if _, dup := byReplica[vc.Replica]; !dup || vc.Replica == e.ID() {
		byReplica[vc.Replica] = vc
	}
}

// claim is the stable checkpoint vc claims, under the digest its
// proof's announcements name (a VIEW-CHANGE carries none of its own).
func claim(vc *message.MinViewChange) stableCkpt {
	st := stableCkpt{Order: vc.CkptOrder, Proof: vc.CkptProof}
	if len(vc.CkptProof) > 0 {
		st.Digest = vc.CkptProof[0].StateDigest
	}
	return st
}

// verifyViewChange checks a peer's VIEW-CHANGE: its UI, checkpoint
// proof, and — the detection-regime core — that the history is a
// gapless UI sequence from the claimed base to the VIEW-CHANGE's own
// counter.
func (e *Engine) verifyViewChange(vc *message.MinViewChange) error {
	if err := e.sig.VerifyUI(vc.UI, vc.Digest()); err != nil {
		return err
	}
	st := claim(vc)
	if err := e.ck.Certified(st.Order, st.Digest, st.Proof); err != nil {
		return err
	}
	want := vc.HistBase + 1
	for _, raw := range vc.History {
		// Stub entries (sent VIEW-CHANGEs/NEW-VIEWs, see histStubTag)
		// carry the UI and payload digest directly; full entries are
		// unmarshaled and yield the same pair. Either way the checks
		// below are identical: right issuer, gapless counter, and a
		// USIG signature over exactly that digest.
		ui, d, isStub := decodeHistStub(raw)
		var com *message.MinCommit
		if !isStub {
			m, err := message.Unmarshal(raw)
			if err != nil {
				return fmt.Errorf("minbft: history entry: %w", err)
			}
			var ok bool
			ui, ok = uiOf(m)
			if !ok {
				return fmt.Errorf("minbft: history entry without UI (%s)", m.MsgType())
			}
			if d, ok = digestOf(m); !ok {
				return fmt.Errorf("minbft: undigestable history entry")
			}
			com, _ = m.(*message.MinCommit)
		}
		if ui.Issuer != vc.Replica {
			return fmt.Errorf("minbft: foreign history entry")
		}
		if ui.Counter != want {
			return fmt.Errorf("minbft: history gap at counter %d (have %d)", want, ui.Counter)
		}
		if err := e.sig.VerifyUI(ui, d); err != nil {
			return err
		}
		if com != nil && com.Prepare != nil {
			// The embedded proposal must be genuine and the one the
			// commit acknowledged.
			if com.Prepare.UI != com.PrepareUI || com.Prepare.BatchDigest() != com.BatchDigest {
				return fmt.Errorf("minbft: commit embeds mismatched prepare")
			}
			if err := e.sig.VerifyUI(com.Prepare.UI, com.Prepare.Digest()); err != nil {
				return err
			}
		}
		want++
	}
	if want != vc.UI.Counter {
		return fmt.Errorf("minbft: history ends at %d, view-change consumed %d — concealment", want-1, vc.UI.Counter)
	}
	return nil
}

func uiOf(m message.Message) (usig.UI, bool) {
	switch v := m.(type) {
	case *message.MinPrepare:
		return v.UI, true
	case *message.MinCommit:
		return v.UI, true
	case *message.MinViewChange:
		return v.UI, true
	case *message.MinNewView:
		return v.UI, true
	default:
		return usig.UI{}, false
	}
}

func digestOf(m message.Message) (crypto.Digest, bool) {
	switch v := m.(type) {
	case *message.MinPrepare:
		return v.Digest(), true
	case *message.MinCommit:
		return v.Digest(), true
	case *message.MinViewChange:
		return v.Digest(), true
	case *message.MinNewView:
		return v.Digest(), true
	default:
		return crypto.Digest{}, false
	}
}

func (e *Engine) handleViewChange(from uint32, vc *message.MinViewChange) {
	if vc.Replica != from || vc.View <= e.View() {
		return
	}
	if err := e.verifyViewChange(vc); err != nil {
		return
	}
	e.storeVC(vc)
	// f+1 view changes for a higher view: join (one is correct).
	if len(e.vcs[vc.View]) >= e.Cfg.F()+1 && e.Pending < vc.View {
		e.sendViewChange(vc.View)
	}
	if e.Cfg.LeaderOf(vc.View) == e.ID() {
		e.maybeNewView(vc.View)
	}
}

// --- NEW-VIEW ---

// minTransfer derives the new view's starting checkpoint (the newest
// claimed, with its proof) and the batches to re-propose from a quorum
// of VIEW-CHANGEs.
func minTransfer(vcs map[uint32]*message.MinViewChange) (start stableCkpt, batches [][]*message.Request) {
	for _, vc := range vcs {
		if vc.CkptOrder > start.Order {
			start = claim(vc)
		}
	}
	// The anchor of the highest view any quorum member participated
	// in translates that view's leader counters into order numbers.
	var vmax timeline.View
	var anchorOrder, anchorCounter uint64
	for _, vc := range vcs {
		if vc.AnchorView >= vmax && vc.AnchorCounter > 0 {
			vmax = vc.AnchorView
			anchorOrder, anchorCounter = vc.AnchorOrder, vc.AnchorCounter
		}
	}
	byOrder := make(map[timeline.Order][]*message.Request)
	var maxO timeline.Order
	consider := func(prep *message.MinPrepare) {
		if prep == nil || prep.View != vmax || anchorCounter == 0 {
			return
		}
		if prep.UI.Counter < anchorCounter {
			return
		}
		o := timeline.Order(anchorOrder + (prep.UI.Counter - anchorCounter))
		if o <= start.Order {
			return
		}
		byOrder[o] = prep.Requests
		if o > maxO {
			maxO = o
		}
	}
	for _, vc := range vcs {
		for _, raw := range vc.History {
			m, err := message.Unmarshal(raw)
			if err != nil {
				continue
			}
			switch v := m.(type) {
			case *message.MinPrepare:
				// A leader's own proposal.
				consider(v)
			case *message.MinCommit:
				// A follower's acknowledgment embeds the proposal it
				// answered — that is how proposals survive a crashed
				// leader whose history nobody has.
				consider(v.Prepare)
			}
		}
	}
	for o := start.Order + 1; o <= maxO; o++ {
		batches = append(batches, byOrder[o]) // nil = no-op gap filler
	}
	return start, batches
}

func (e *Engine) maybeNewView(target timeline.View) {
	if e.Cfg.LeaderOf(target) != e.ID() || e.Pending != target || target == 0 {
		return
	}
	vcs := e.vcs[target]
	if len(vcs) < e.Cfg.Quorum() {
		return
	}
	nv := &message.MinNewView{View: target}
	for _, vc := range vcs {
		nv.VCs = append(nv.VCs, vc)
	}
	sort.Slice(nv.VCs, func(i, j int) bool { return nv.VCs[i].Replica < nv.VCs[j].Replica })
	ui, err := e.sig.CreateUI(nv.Digest())
	if err != nil {
		return
	}
	nv.UI = ui
	e.recordSent(ui, e.nextOrder, nv)
	transport.Multicast(e.Ep, e.Cfg.N, nv)

	start, batches := minTransfer(vcs)
	// Our first fresh prepare consumes the counter after the NEW-VIEW
	// we just recorded.
	e.install(target, start, batches, true, e.lastSent+1)
}

func (e *Engine) handleNewView(from uint32, nv *message.MinNewView) {
	if nv.View <= e.View() || from != e.Cfg.LeaderOf(nv.View) {
		return
	}
	if err := e.sig.VerifyUI(nv.UI, nv.Digest()); err != nil {
		return
	}
	vcs := make(map[uint32]*message.MinViewChange)
	for _, vc := range nv.VCs {
		if vc.View != nv.View {
			return
		}
		if err := e.verifyViewChange(vc); err != nil {
			return
		}
		vcs[vc.Replica] = vc
	}
	if len(vcs) < e.Cfg.Quorum() {
		return
	}
	start, batches := minTransfer(vcs)
	// The leader's first fresh prepare consumes the counter after its
	// NEW-VIEW.
	e.install(nv.View, start, batches, false, nv.UI.Counter+1)
}

// install enters the new view through the engine's install step (an
// adopted claim prunes the window as a stable checkpoint does), drops
// the aborted instances above the checkpoint (their batches return via
// re-proposal), re-anchors the order cursor, and — as the new leader —
// proposes the transferred batches afresh with new UIs.
func (e *Engine) install(v timeline.View, start stableCkpt, batches [][]*message.Request, leader bool, anchorCounter uint64) {
	if e.ck.EnterView(v, start) {
		e.advanceLow(start.Order)
	}
	startCkpt := start.Order
	for o := range e.slots {
		if o > startCkpt {
			delete(e.slots, o)
		}
	}
	for c, o := range e.orderByCounter {
		if o > startCkpt {
			delete(e.orderByCounter, c)
		}
	}
	// Parked early commits answer old-view prepares; drop them.
	clear(e.earlyCommits)
	e.setNextOrder(startCkpt + 1)
	// Anchor for the new view: the leader's first fresh prepare (the
	// first re-proposal) carries counter anchorCounter and gets order
	// startCkpt+1.
	e.anchorView = v
	e.anchorOrder = e.nextOrder
	e.anchorCounter = anchorCounter

	// Signed VIEW-CHANGEs for higher views stay: their UI counters are
	// already consumed at this replica, so a retransmission would be
	// replay-dropped and the message lost.
	for view := range e.vcs {
		if view <= v {
			delete(e.vcs, view)
		}
	}
	e.suspectSince = time.Time{}
	e.Relax()

	if leader {
		for _, batch := range batches {
			e.proposeBatch(batch)
		}
		e.propose() // queued client requests follow the re-proposals
	}
}

// proposeBatch certifies and multicasts one exact batch (view-change
// re-proposals must not be re-batched).
func (e *Engine) proposeBatch(batch []*message.Request) {
	prep := &message.MinPrepare{View: e.View(), Requests: batch}
	ui, err := e.sig.CreateUI(prep.Digest())
	if err != nil {
		return
	}
	prep.UI = ui
	e.ord.Prepares.Inc()
	e.Met.Trace(telemetry.EvPropose, uint64(e.View()), uint64(e.nextOrder), 0, "reproposal")
	e.recordSent(ui, e.nextOrder, prep)
	transport.Multicast(e.Ep, e.Cfg.N, prep)
	e.ingest(e.ID(), ui, prep, false)
}
