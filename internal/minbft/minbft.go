// Package minbft implements MinBFT (Veronese et al., IEEE ToC 2013),
// the sequential hybrid baseline of §4: two-phase ordering over the
// USIG trusted subsystem with n = 2f+1 replicas. All protocol
// processing is deliberately single-threaded — MinBFT must process
// every incoming message in counter order (§4.2: equivocation is
// detected, not prevented, by checking UI sequence numbers), which is
// exactly the property that makes it unparallelizable and motivates
// Hybster. The engine therefore runs one protocol goroutine plus the
// execution stage, mirroring the paper's characterization that
// "MinBFT has to process all incoming messages in-order".
//
// The implementation covers the ordering and checkpointing protocols
// used by the evaluation (§6.2's published comparison point runs the
// fault-free path), MinBFT's history-based view change — whose
// unbounded memory demand §4.4 criticizes — under a crash-fault scope
// (see viewchange.go), and checkpoint-anchored state transfer so a
// replica whose missed instances were garbage-collected by a stable
// checkpoint can resume execution from quorum-certified state.
package minbft

import (
	"errors"
	"sort"
	"sync"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
	"hybster/internal/usig"
)

// Options bundle the dependencies of an Engine. DataDir must be empty:
// the USIG seals nothing, so a replica booted from its log would rejoin
// under its old identity with its counters reset — the restart zombie
// its peers convict (ErrCounterRegression). MinBFT is the one protocol
// that refuses a data dir.
type Options = engine.Options

// stableCkpt is the record of the last stable checkpoint, announcement
// one replica's certified CHECKPOINT on its way to the quorum count.
type (
	stableCkpt   = engine.StableCkpt[*message.Checkpoint]
	announcement = engine.Announcement[*message.Checkpoint]
)

// slot tracks one ordered instance (identified by the leader prepare's
// UI counter).
type slot struct {
	order       timeline.Order
	batch       []*message.Request
	batchDigest crypto.Digest
	acks        map[uint32]bool
	committed   bool
	executed    bool
}

// Engine is one MinBFT replica.
type Engine struct {
	// Host supplies everything protocol-independent. MinBFT is not
	// pillar-structured: its one protocol loop drains the Host's
	// coordinator mailbox, and it proposes by itself. The Watchdog's
	// pending-work marker only feeds /readyz: the suspicion clock below
	// restarts on commits and timeouts, which a stuck-detector must not.
	*engine.Host
	// sig issues UIs for ordering messages; sigCkpt is a second USIG
	// instance dedicated to checkpoints so that checkpoint traffic
	// does not perturb the ordering counter sequence (the leader's
	// ordering counter maps 1:1 onto order numbers).
	sig     *usig.USIG
	sigCkpt *usig.USIG

	// protocol state, confined to the protocol loop (the installed view
	// is the Host's View, which install alone sets)
	//
	// expected[r] is the next UI counter value accepted from replica
	// r; the in-order processing MinBFT requires.
	expected map[uint32]uint64
	// holdback parks messages that arrived ahead of their sender's
	// expected counter.
	holdback map[uint32]map[uint64]heldMsg
	// nextOrder is the order number assigned to the next accepted
	// prepare (leader-side: the next proposal).
	nextOrder timeline.Order
	// slots maps order numbers to instances in the current window.
	slots map[timeline.Order]*slot
	// ck is the checkpoint sub-protocol (its stable record holds the
	// quorum certificate VIEW-CHANGEs carry, and its order is the
	// window's low watermark) and state transfer.
	ck *engine.Checkpoints[*message.Checkpoint]

	// queue of admitted requests (leader only).
	queue    []*message.Request
	inFlight int

	// view-change state (confined to the run goroutine). suspectSince
	// is the suspicion clock (zero = not running): work arrival starts
	// it, a commit restarts it, execution progress (execSeen is the
	// frontier the tick last saw) restarts or stops it, an install stops
	// it; it also times the pending view (engine.Host.Pending). vcs
	// holds this replica's own VIEW-CHANGE too, which the tick
	// retransmits.
	suspectSince time.Time
	execSeen     timeline.Order
	vcs          map[timeline.View]map[uint32]*message.MinViewChange
	// history of sent UI-consuming messages since the last stable
	// checkpoint (§4.4's unbounded state).
	sentLog  []sentEntry
	histBase uint64
	lastSent uint64
	// order anchoring for the current view: the leader prepare with
	// counter anchorCounter has order anchorOrder.
	anchorView    timeline.View
	anchorOrder   timeline.Order
	anchorCounter uint64
	// orderByCounter maps current-view leader prepare counters to the
	// orders this replica assigned them.
	orderByCounter map[uint64]timeline.Order
	// earlyCommits parks commits that overtook their prepare (links
	// are independent: a follower's commit can arrive before the
	// leader's prepare it answers). Their UI
	// counter slots are already consumed, so a retransmitted copy
	// would be discarded as a replay — dropping an early commit here
	// would lose the ack forever. Keyed by the leader-prepare counter
	// the commit answers; drained when that prepare is accepted.
	earlyCommits map[uint64]map[uint32]*message.MinCommit
	// resend is a bounded ring of recently sent UI-consuming messages.
	// MinBFT requires reliable FIFO channels: a receiver processes a
	// sender's messages strictly in counter order, so one lost message
	// wedges the link forever. Re-multicasting recent messages while
	// progress is stalled implements the reliable-channel assumption
	// over a lossy network; receivers drop replays by counter.
	resend     []message.Message
	lastResend time.Time
	// lastVCResend rate-limits re-multicasting our VIEW-CHANGE while a view
	// change is pending. VIEW-CHANGEs carry the full sent-message
	// history (§4.4), so after a few election rounds they are by far
	// the largest messages in the system; re-sending one per tick
	// would turn the history growth into a bandwidth and CPU storm.
	lastVCResend time.Time

	ord engine.OrderingMetrics
	// zombiesC counts replicas convicted of counter regression.
	zombiesC *telemetry.Counter
	// nextOrderG, queueLenG and histLenG publish nextOrder, len(queue)
	// and len(sentLog); the loop sets them as it changes those.
	nextOrderG, queueLenG, histLenG *telemetry.Gauge

	// deaf marks sender streams whose expected-counter gap exceeded the
	// holdback horizon with an ordering message parked — a stream that
	// can never drain on its own (PR 8's "deaf replica" class). Cleared
	// when the stream advances or a view-change message re-anchors it.
	// Confined to the run goroutine; the standing counts it (Deaf),
	// which the auditor's deaf-stream check and the gauge read.
	deaf map[uint32]bool

	// seenMAC[r] is a bounded ring of the UI MACs accepted from replica
	// r, keyed by counter value. A replay carries the exact MAC we
	// already processed; a *different* MAC under an old counter value is
	// cryptographic proof the sender's USIG issued one counter twice —
	// i.e. it restarted with regressed trusted state (paper §4.4's
	// rejoin gap). Confined to the run goroutine.
	seenMAC map[uint32]map[uint64]crypto.MAC
	// zombies marks senders convicted of counter regression; all their
	// traffic is refused from then on. Confined to the run goroutine;
	// the mirror set below serves concurrent readers.
	zombies map[uint32]bool

	zombieMu  sync.Mutex
	zombieSet map[uint32]bool
}

// heldMsg is a held-back out-of-order message plus its verified bit.
type heldMsg struct {
	msg      message.Message
	verified bool
}

const maxInFlight = 16

// ckptIssuerFlag distinguishes a replica's checkpoint USIG instance
// from its ordering instance in UI issuer IDs.
const ckptIssuerFlag uint32 = 1 << 30

// trinxIssuer adapts a USIG issuer ID to the instance-ID field of the
// shared Checkpoint message type.
func trinxIssuer(id uint32) trinx.InstanceID {
	return trinx.InstanceID(uint64(id) << 16)
}

// New assembles a MinBFT replica.
func New(opts Options) (*Engine, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.DataDir != "" {
		return nil, errors.New("minbft: no sealed USIG state; a replica with a data dir would rejoin under its old identity with reset counters")
	}
	key := crypto.NewKeyFromSeed(opts.Config.KeySeed)
	e := &Engine{
		sig:      usig.New(opts.Platform, opts.ID, key, opts.EnclaveCost).Instrument(opts.Telemetry),
		sigCkpt:  usig.New(opts.Platform, opts.ID|ckptIssuerFlag, key, opts.EnclaveCost).Instrument(opts.Telemetry),
		expected: make(map[uint32]uint64),
		holdback: make(map[uint32]map[uint64]heldMsg),
		slots:    make(map[timeline.Order]*slot),

		vcs:            make(map[timeline.View]map[uint32]*message.MinViewChange),
		orderByCounter: make(map[uint64]timeline.Order),
		earlyCommits:   make(map[uint64]map[uint32]*message.MinCommit),
		anchorOrder:    1,
		anchorCounter:  1,
		seenMAC:        make(map[uint32]map[uint64]crypto.MAC),
		zombies:        make(map[uint32]bool),
		zombieSet:      make(map[uint32]bool),
		deaf:           make(map[uint32]bool),
	}
	// Checkpoints run on the protocol loop, so USIG and window state
	// stay single-threaded; the suspicion clock lives there too.
	h, err := engine.NewHost("minbft", opts, statemachine.NewExecutor(opts.Application), engine.Handlers{
		Classify: classify,
		Coord:    e.handleEvent,
		Abort:    e.sendViewChange,
		Standing: e.standing,
		Close:    func(bool) { e.sig.Destroy(); e.sigCkpt.Destroy() },
	})
	if err != nil {
		return nil, err
	}
	e.Host = h
	e.ord = e.Met.Ordering()
	e.zombiesC = e.Met.Counter("zombies_total", "replicas convicted of counter regression")
	e.ck = engine.NewCheckpoints(e.Host, e.certifiedCkpt, func(st *stableCkpt) {
		e.advanceLow(st.Order)
		e.propose()
	})
	for r := uint32(0); int(r) < opts.Config.N; r++ {
		e.expected[r] = 1
	}
	e.nextOrderG = e.Met.Gauge("next_order", "next order number to assign")
	e.queueLenG = e.Met.Gauge("queue_len", "client requests queued for proposal")
	e.histLenG = e.Met.Gauge("history_len", "sent-message history length (§4.4's unbounded state)")
	e.setNextOrder(1)
	e.registerGauges()
	return e, nil
}

// ErrCounterRegression reports that a peer presented a valid UI whose
// counter value was already consumed by a different message — proof it
// restarted without its USIG state (the rejoin gap of paper §4.4).
var ErrCounterRegression = errors.New("minbft: trusted counter regression detected (replica rejoined without its USIG state)")

// Zombies returns the replicas this engine convicted of counter
// regression, in ascending order.
func (e *Engine) Zombies() []uint32 {
	e.zombieMu.Lock()
	defer e.zombieMu.Unlock()
	out := make([]uint32, 0, len(e.zombieSet))
	for r := range e.zombieSet {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ZombieErr returns ErrCounterRegression if replica r was convicted of
// counter regression, nil otherwise.
func (e *Engine) ZombieErr(r uint32) error {
	e.zombieMu.Lock()
	defer e.zombieMu.Unlock()
	if e.zombieSet[r] {
		return ErrCounterRegression
	}
	return nil
}

// classify sends every inbound message to the one protocol loop: MinBFT's
// defining constraint is that it cannot be split further. The Host
// keeps each sender's stream in arrival order — ingest's per-sender
// counter sequencing depends on it — and delivers a request-bearing
// message even when its batch fails verification (see engine.Host).
func classify(m message.Message) engine.Route {
	switch v := m.(type) {
	case *message.Request:
		return engine.Route{To: engine.ToCoord, Verify: []*message.Request{v}}
	case *message.MinPrepare:
		return engine.Route{To: engine.ToCoord, Verify: v.Requests}
	}
	return engine.Route{To: engine.ToCoord}
}

func (e *Engine) leader() uint32 { return e.Cfg.LeaderOf(e.View()) }

// handleEvent is the Host's handler for the protocol loop's mailbox.
func (e *Engine) handleEvent(ev any) {
	switch in := ev.(type) {
	case engine.InMsg:
		switch m := in.Msg.(type) {
		case *message.Request:
			e.handleRequest(m, in.Verified)
		case *message.MinPrepare:
			e.ingest(in.From, m.UI, m, in.Verified)
		case *message.MinCommit:
			e.ingest(in.From, m.UI, m, false)
		case *message.MinViewChange:
			e.ingest(in.From, m.UI, m, false)
		case *message.MinNewView:
			e.ingest(in.From, m.UI, m, false)
		case *message.Checkpoint:
			e.handleCheckpoint(in.From, m)
		case *message.StateRequest:
			// Zombies may fetch state too: the reply is read-only and
			// quorum-certified, and a revived zombie that executes again
			// still helps clients reach their f+1 matching replies.
			e.ck.Serve(in.From, m)
		case *message.StateReply:
			if !e.zombies[in.From] {
				e.ck.Install(in.From, m)
			}
		}
	case *statemachine.CheckpointView:
		e.checkpointDue(in)
	case announcement:
		e.ck.Handle(in)
	case engine.Tick:
		e.handleTick()
	}
}

// ingest enforces per-sender counter order: messages are processed
// exactly in UI sequence; gaps are held back, duplicates and replays
// dropped. This is the sequential bottleneck of §3.
func (e *Engine) ingest(from uint32, ui usig.UI, m message.Message, verified bool) {
	if ui.Issuer != from {
		return
	}
	if e.zombies[from] {
		return // convicted of counter regression; refuse everything
	}
	if from != e.ID() {
		// Verify the UI before the counter stream consumes it. A
		// corrupted message must not burn its counter slot (the genuine
		// retransmission would then be dropped as a replay), and its
		// MAC must not enter seenMAC — a mangled MAC recorded there
		// would frame the honest sender as a counter-regressed zombie
		// the moment the genuine copy arrives and verifies.
		if d, ok := uiPayloadDigest(m); !ok || e.sig.VerifyUI(ui, d) != nil {
			return
		}
	}
	if from == e.ID() {
		// Own messages are produced in counter order by construction,
		// but not every own message is self-ingested (commits and
		// view-change messages are recorded directly), so the counter
		// stream seen here has gaps. Process immediately and advance.
		e.process(from, m, verified)
		if ui.Counter >= e.expected[from] {
			e.expected[from] = ui.Counter + 1
		}
		return
	}
	want := e.expected[from]
	switch {
	case ui.Counter < want:
		// Replays re-present the exact message (same counter, same
		// MAC). A different MAC under an already-consumed counter means
		// the sender's USIG signed two messages with one value — a
		// restart with regressed trusted state. Verify the UI before
		// convicting so a forged MAC cannot frame a correct sender.
		if prev, ok := e.seenMAC[from][ui.Counter]; ok && prev != ui.MAC {
			if d, ok := uiPayloadDigest(m); ok && e.sig.VerifyUI(ui, d) == nil {
				e.markZombie(from)
			}
		}
		return
	case ui.Counter > want:
		// A gap wider than the holdback horizon can never drain: the
		// intermediate messages would not all fit, so the stream is
		// dead — the position a replica lands in after a volatile
		// restart, when its expectation map restarts from zero while
		// the peers' counters kept running. View-change-layer messages
		// are self-contained (their UI was verified above and their
		// content carries its own proof: a VIEW-CHANGE presents its
		// history, a NEW-VIEW its VC quorum), so they may re-anchor
		// the stream at the sender's live position; the skipped
		// counters are acknowledged lost. Ordering messages must not —
		// a prepare or commit is only meaningful in sequence.
		if ui.Counter-want > 4*uint64(e.Cfg.WindowSize) {
			switch m.(type) {
			case *message.MinViewChange, *message.MinNewView:
				for c := range e.holdback[from] {
					if c <= ui.Counter {
						delete(e.holdback[from], c)
					}
				}
				e.recordSeen(from, ui)
				e.process(from, m, verified)
				e.expected[from] = ui.Counter + 1
				delete(e.deaf, from) // re-anchored
				return
			}
			// An ordering message across an undrainable gap: the stream
			// is deaf until a self-contained view-change message
			// re-anchors it. The standing surfaces it for the auditor,
			// and it is evidence that the group runs ahead.
			e.deaf[from] = true
			e.ck.Handle(engine.Behind{})
		}
		hb := e.holdback[from]
		if hb == nil {
			hb = make(map[uint64]heldMsg)
			e.holdback[from] = hb
		}
		// Bound holdback memory against a flooding sender.
		if len(hb) < 4*int(e.Cfg.WindowSize) {
			hb[ui.Counter] = heldMsg{msg: m, verified: verified}
		}
		return
	}
	e.recordSeen(from, ui)
	e.process(from, m, verified)
	e.expected[from] = want + 1
	delete(e.deaf, from) // the stream advances
	// Drain consecutive held-back messages.
	for {
		next, ok := e.holdback[from][e.expected[from]]
		if !ok {
			return
		}
		delete(e.holdback[from], e.expected[from])
		if nui, ok := msgUI(next.msg); ok {
			e.recordSeen(from, nui)
		}
		e.process(from, next.msg, next.verified)
		e.expected[from]++
	}
}

// recordSeen remembers the MAC accepted under a counter value, bounded
// to the holdback horizon so the ring cannot grow without limit.
func (e *Engine) recordSeen(from uint32, ui usig.UI) {
	ring := e.seenMAC[from]
	if ring == nil {
		ring = make(map[uint64]crypto.MAC)
		e.seenMAC[from] = ring
	}
	ring[ui.Counter] = ui.MAC
	bound := 4 * uint64(e.Cfg.WindowSize)
	if ui.Counter > bound {
		delete(ring, ui.Counter-bound)
	}
}

// markZombie convicts a sender of trusted-counter regression: its
// traffic is refused from now on and the conviction is visible through
// Zombies() / ZombieErr().
func (e *Engine) markZombie(from uint32) {
	if e.zombies[from] {
		return
	}
	e.zombies[from] = true
	e.zombiesC.Inc()
	e.zombieMu.Lock()
	e.zombieSet[from] = true
	e.zombieMu.Unlock()
}

// uiPayloadDigest returns the digest a message's UI certifies.
func uiPayloadDigest(m message.Message) (crypto.Digest, bool) {
	switch v := m.(type) {
	case *message.MinPrepare:
		return v.Digest(), true
	case *message.MinCommit:
		return v.Digest(), true
	case *message.MinViewChange:
		return v.Digest(), true
	case *message.MinNewView:
		return v.Digest(), true
	}
	return crypto.Digest{}, false
}

// msgUI extracts the UI carried by a UI-consuming message.
func msgUI(m message.Message) (usig.UI, bool) {
	switch v := m.(type) {
	case *message.MinPrepare:
		return v.UI, true
	case *message.MinCommit:
		return v.UI, true
	case *message.MinViewChange:
		return v.UI, true
	case *message.MinNewView:
		return v.UI, true
	}
	return usig.UI{}, false
}

func (e *Engine) process(from uint32, m message.Message, verified bool) {
	switch v := m.(type) {
	case *message.MinPrepare:
		e.handlePrepare(from, v, verified)
	case *message.MinCommit:
		e.handleCommit(from, v)
	case *message.MinViewChange:
		e.handleViewChange(from, v)
	case *message.MinNewView:
		e.handleNewView(from, v)
	}
}

// handleRequest admits a client request; only the leader proposes.
// verified skips the authenticator re-check for requests the Host's
// inbound route already cleared.
func (e *Engine) handleRequest(r *message.Request, verified bool) {
	if !verified && !crypto.VerifyAuthenticator(e.Keys, r.Auth, r.Digest()) {
		return
	}
	e.noteWorkLocked()
	if e.leader() != e.ID() {
		_ = e.Ep.Send(e.leader(), r)
		return
	}
	e.queue = append(e.queue, r)
	e.propose()
}

// propose sends MinPrepares while in-flight credit remains and the
// window is open.
func (e *Engine) propose() {
	defer func() { e.queueLenG.Set(int64(len(e.queue))) }()
	if e.Pending != 0 || e.leader() != e.ID() {
		return
	}
	for len(e.queue) > 0 && e.inFlight < maxInFlight && e.nextOrder <= e.ck.Stable().Order+e.Cfg.WindowSize {
		n := min(len(e.queue), e.Cfg.BatchSize)
		batch := make([]*message.Request, n)
		copy(batch, e.queue[:n])
		e.queue = append(e.queue[:0], e.queue[n:]...)
		e.inFlight++
		prep := &message.MinPrepare{View: e.View(), Requests: batch}
		ui, err := e.sig.CreateUI(prep.Digest())
		if err != nil {
			return
		}
		prep.UI = ui
		e.recordSent(ui, e.nextOrder, prep)
		e.ord.Prepares.Inc()
		bd := message.BatchDigest(batch)
		e.Met.TraceD(telemetry.EvPropose, uint64(e.View()), uint64(e.nextOrder), 0, bd[:], "")
		transport.Multicast(e.Ep, e.Cfg.N, prep)
		// The leader's own prepare is processed inline (its UI is the
		// next expected from itself).
		e.ingest(e.ID(), ui, prep, false)
	}
}

// handlePrepare accepts the leader's proposal: the total order is
// derived from the leader's UI counter through the view anchor (§4.4 —
// MinBFT derives the order from the counter value, not from explicit
// order numbers). The derivation must be arithmetic, not
// arrival-counting: a prepare can consume its counter in ingest and
// still be skipped here (e.g. it raced ahead of the NEW-VIEW that
// opens its view), and a replica that then counted arrivals would bind
// every later batch one order lower than its peers — same batches,
// rotated orders, a silent state fork that only surfaces when
// checkpoint digests stop matching.
func (e *Engine) handlePrepare(from uint32, p *message.MinPrepare, authVerified bool) {
	if from != e.leader() || p.View != e.View() || e.Pending != 0 {
		return
	}
	e.noteWorkLocked()
	if from != e.ID() {
		if err := e.sig.VerifyUI(p.UI, p.Digest()); err != nil {
			return
		}
		if !authVerified {
			for _, r := range p.Requests {
				if !crypto.VerifyAuthenticator(e.Keys, r.Auth, r.Digest()) {
					return
				}
			}
		}
	}
	if p.UI.Counter < e.anchorCounter {
		return
	}
	o := e.anchorOrder + timeline.Order(p.UI.Counter-e.anchorCounter)
	if o <= e.ck.Stable().Order {
		return // covered by a stable checkpoint already
	}
	if o >= e.nextOrder {
		e.setNextOrder(o + 1)
	}
	e.orderByCounter[p.UI.Counter] = o
	s := &slot{
		order: o, batch: p.Requests, batchDigest: message.BatchDigest(p.Requests),
		acks: map[uint32]bool{from: true},
	}
	e.slots[o] = s

	if from != e.ID() {
		com := &message.MinCommit{
			View: e.View(), Replica: e.ID(), BatchDigest: s.batchDigest,
			Prepare: p, PrepareUI: p.UI,
		}
		ui, err := e.sig.CreateUI(com.Digest())
		if err != nil {
			return
		}
		com.UI = ui
		e.recordSent(ui, o, com)
		s.acks[e.ID()] = true
		e.ord.Commits.Inc()
		e.Met.TraceD(telemetry.EvCommit, uint64(e.View()), uint64(o), 0, s.batchDigest[:], "")
		transport.Multicast(e.Ep, e.Cfg.N, com)
	}
	// Commits that overtook this prepare are waiting for it.
	if held := e.earlyCommits[p.UI.Counter]; held != nil {
		delete(e.earlyCommits, p.UI.Counter)
		for r, c := range held {
			if c.View == e.View() {
				e.applyCommit(r, c, o)
			}
		}
	}
	e.refresh(s)
}

// handleCommit records a follower acknowledgment; the commit names the
// leader UI it answers, which identifies the slot.
func (e *Engine) handleCommit(from uint32, c *message.MinCommit) {
	if c.View != e.View() || from == e.ID() {
		return
	}
	if err := e.sig.VerifyUI(c.UI, c.Digest()); err != nil {
		return
	}
	// Locate the slot through the leader-counter → order mapping this
	// replica recorded when it accepted the prepare.
	o, ok := e.orderByCounter[c.PrepareUI.Counter]
	if !ok {
		// The commit overtook its prepare. Its counter slot is burned
		// (ingest already advanced the sender's stream) and a replay
		// would be discarded, so park it until the prepare lands —
		// bounded like the holdback map against a flooding sender.
		if len(e.earlyCommits) < 4*int(e.Cfg.WindowSize) {
			held := e.earlyCommits[c.PrepareUI.Counter]
			if held == nil {
				held = make(map[uint32]*message.MinCommit)
				e.earlyCommits[c.PrepareUI.Counter] = held
			}
			held[from] = c
		}
		return
	}
	e.applyCommit(from, c, o)
}

// applyCommit records one follower ack against the slot at order o.
func (e *Engine) applyCommit(from uint32, c *message.MinCommit, o timeline.Order) {
	s, ok := e.slots[o]
	if !ok {
		return
	}
	if s.batchDigest != c.BatchDigest {
		return // equivocation detected: conflicting digest for one UI
	}
	s.acks[from] = true
	e.refresh(s)
}

func (e *Engine) refresh(s *slot) {
	if !s.committed && len(s.acks) >= e.Cfg.Quorum() {
		s.committed = true
	}
	if s.committed && !s.executed {
		s.executed = true
		e.ord.Committed.Inc()
		e.Met.TraceD(telemetry.EvDeliver, uint64(e.View()), uint64(s.order), 0, s.batchDigest[:], "")
		// A commit is ordering progress: the leader is doing its job, so
		// the suspicion clock restarts. Execution progress alone is the
		// wrong signal here — a replica that missed an instance later
		// garbage-collected by a checkpoint executes nothing until a
		// state transfer lands, and on execution-progress-only
		// accounting it would suspect every healthy leader meanwhile,
		// feeding the §4.4 view-change history growth this repo exists
		// to measure.
		if !e.suspectSince.IsZero() {
			e.suspectSince = e.Now()
		}
		e.Relax()
		e.Decide(e.View(), s.order, s.batch, false)
		if e.leader() == e.ID() {
			if e.inFlight > 0 {
				e.inFlight--
			}
			e.propose()
		}
	}
}

// --- checkpointing ---

// checkpointDue certifies the announcement of a checkpoint boundary
// posted by the execution loop. Checkpoint UIs come from the dedicated
// checkpoint USIG instance and are embedded in the shared Checkpoint
// message's certificate fields (issuer/value/MAC).
func (e *Engine) checkpointDue(v *statemachine.CheckpointView) {
	if v.Order < e.ck.Stable().Order {
		return
	}
	// A boundary that already stabilized (we executed it late) is still
	// announced: a peer that missed one announcement needs ours.
	digest, _ := e.ck.Candidate(v)
	ck := &message.Checkpoint{Order: v.Order, Replica: e.ID(), StateDigest: digest}
	ui, err := e.sigCkpt.CreateUI(ck.Digest())
	if err != nil {
		return
	}
	ck.Cert.Issuer = trinxIssuer(ui.Issuer)
	ck.Cert.Value = ui.Counter
	ck.Cert.MAC = ui.MAC
	e.ck.Announce(0, e.View(), announcement{Replica: ck.Replica, Order: ck.Order, Digest: digest, Msg: ck})
}

// handleCheckpoint verifies a peer's announcement and counts it.
func (e *Engine) handleCheckpoint(from uint32, ck *message.Checkpoint) {
	if ck.Replica != from {
		return
	}
	if a, err := e.certifiedCkpt(ck); err == nil {
		e.ck.Handle(a)
	}
}

// certifiedCkpt verifies one checkpoint announcement: its UI from the
// announcing replica's checkpoint USIG, carried in the certificate
// fields.
func (e *Engine) certifiedCkpt(ck *message.Checkpoint) (announcement, error) {
	a := announcement{Replica: ck.Replica, Order: ck.Order, Digest: ck.StateDigest, Msg: ck}
	ui := usig.UI{Issuer: ck.Replica | ckptIssuerFlag, Counter: ck.Cert.Value, MAC: ck.Cert.MAC}
	if ck.Cert.Issuer != trinxIssuer(ui.Issuer) {
		return a, errors.New("minbft: checkpoint certificate names another issuer")
	}
	return a, e.sigCkpt.VerifyUI(ui, ck.Digest())
}

// advanceLow slides the window to stable checkpoint o and prunes what
// it covers. MinBFT's counter-ordered streams cannot re-deliver pruned
// batches: a replica that missed one catches up by state transfer.
func (e *Engine) advanceLow(o timeline.Order) {
	for k := range e.slots {
		if k <= o {
			delete(e.slots, k)
		}
	}
	for c, k := range e.orderByCounter {
		if k <= o {
			delete(e.orderByCounter, c)
		}
	}
	e.pruneHistory(o)
}
