package engine

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/config"
	"hybster/internal/cop"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/wal"
)

// Options bundle the dependencies of one replica engine. core, pbft
// and minbft alias it as their Options.
type Options struct {
	// Config is the validated group configuration.
	Config config.Config
	// ID is this replica's ID in [0, N).
	ID uint32
	// Endpoint connects the replica to the group.
	Endpoint transport.Endpoint
	// Application is the replicated service.
	Application statemachine.Application
	// Platform hosts the trusted subsystems (TrInX, USIG); PBFTcop
	// does not use it.
	Platform *enclave.Platform
	// EnclaveCost is the simulated SGX cost model for trusted calls.
	EnclaveCost enclave.CostModel
	// Telemetry, when non-nil, enables metrics and protocol-event
	// tracing for this replica (package telemetry). nil runs the
	// engine fully uninstrumented.
	Telemetry *telemetry.Telemetry
	// DataDir, when non-empty, makes the replica durable: the Host logs
	// decisions and stable checkpoints under DataDir/wal and replays
	// them at boot, before state transfer fetches the rest, and a
	// protocol with trusted counters seals them to DataDir/seal
	// (Host.Seals; core.New fails with trinx.ErrStaleSeal on a
	// rolled-back seal and trinx.ErrAmnesia when the seal register
	// proves state the disk no longer holds). PBFT seals nothing, so a
	// lost disk is a volatile restart; minbft.New refuses a DataDir.
	DataDir string
	// Now optionally overrides the time source (tests).
	Now func() time.Time
}

// Dest names the component of the replica an inbound message belongs
// to.
type Dest uint8

const (
	// Drop discards the message (unknown or foreign-protocol type).
	Drop Dest = iota
	// ToSequencer admits a client request for proposal.
	ToSequencer
	// ToPillar delivers to the pillar owning Route.Order.
	ToPillar
	// ToCkptPillar delivers to the pillar that runs the checkpoint
	// instance of Route.Order (round-robin, §5.3.2).
	ToCkptPillar
	// ToCoord delivers to the coordinator mailbox.
	ToCoord
)

// Route is a protocol's verdict on one inbound message: where it goes
// and which client requests it carries whose authenticators the Host
// must check first.
type Route struct {
	To     Dest
	Order  timeline.Order
	Verify []*message.Request
}

// Handlers are the funcs a protocol supplies to its Host; everything
// else a replica consists of is the Host's.
type Handlers struct {
	// Classify maps an inbound message to its Route. It runs on
	// transport goroutines and must not touch protocol state.
	Classify func(message.Message) Route
	// Pillar handles one event of pillar u's mailbox, on that pillar's
	// goroutine. nil means the protocol is not pillar-structured: the
	// Host then has neither pillar mailboxes nor a Sequencer (MinBFT).
	Pillar func(u uint32, ev any)
	// Coord handles one event of the coordinator mailbox.
	Coord func(ev any)
	// Abort steps into view to once f+1 replicas suspect the one below
	// (Suspect); Lags, if set, relays the NEW-VIEW to a peer in an older view.
	Abort func(to timeline.View)
	Lags  func(peer uint32)
	// Standing fills Desired and the holders of VIEW-CHANGEs for the
	// pending view into the replica's Standing (the Host fills Pending),
	// on the coordinator loop after each of its events.
	Standing func(*Standing)
	// Close releases what the protocol owns (certifiers, and on a
	// graceful stop the seal of their exact counter values) once every
	// goroutine has exited, before the Host closes its log; graceful is
	// false for Kill.
	Close func(graceful bool)
}

// Events the Host posts besides InMsg and Tick.
type (
	// Propose instructs a pillar to propose Batch (nil = no-op) for an
	// order number this replica owns; posted by the Sequencer.
	Propose struct {
		View  timeline.View
		Order timeline.Order
		Batch []*message.Request
	}
	// Behind reports ordering traffic beyond the window — evidence that
	// this replica has fallen behind the group. Pillars post it to the
	// coordinator mailbox, where Checkpoints.Handle records it (CatchUp).
	Behind struct{}
)

// Host is what every replica has regardless of protocol (§5.3): the
// key store, the Watchdog and its ticker, inbound routing with its
// client-authenticator check, the reply stage, the execution stage,
// the Sequencer and the pillar mailboxes of a pillar-structured
// protocol, the coordinator mailbox, the one mailbox-drain loop, the
// goroutine lifecycle, the replica's Standing and, with a data dir,
// the durable log. Engines embed it.
type Host struct {
	Cfg  config.Config
	Ep   transport.Endpoint
	Keys *crypto.KeyStore
	Met  Metrics // records nothing when telemetry is off
	*Watchdog

	Exec  *ExecLoop
	Seq   *Sequencer     // nil without pillars
	Seals *wal.SealStore // nil without a data dir
	// Pending is the view the replica aborted into and has not
	// installed (0 = none): the protocol's ladder sets it when it
	// aborts, Checkpoints.EnterView clears it. Coordinator loop only.
	Pending timeline.View
	// PillarBox[u] is pillar u's mailbox, CoordBox the coordinator's
	// (MinBFT's single protocol loop).
	PillarBox []*cop.Mailbox[any]
	CoordBox  *cop.Mailbox[any]

	id      uint32
	hd      Handlers
	replies *reply.Stage

	// suspects[v]: who suspects view v (Suspect). Coordinator loop only.
	suspects map[timeline.View]map[uint32]bool

	// log is nil without a data dir; recovered is the stable checkpoint
	// it held at boot.
	log       *wal.Log
	recovered *wal.CheckpointRec

	// Request authenticators route accepted, and messages it rejected
	// for a forged one.
	verified *telemetry.Counter
	rejected *telemetry.Counter

	// curView is the installed view (Checkpoints.EnterView sets it),
	// for lock-free reads on hot paths.
	curView   atomic.Uint64
	committed atomic.Uint64 // Standing.Committed

	// standing is the coordinator loop's part of the Standing (publish).
	standing atomic.Pointer[Standing]
	ck       interface{ fillStanding(*Standing) }
	next     Standing

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewHost assembles the replica around executor x. With a data dir it
// first opens the seal store and the log, and replays the log into x.
// name is the protocol's metric and error-text prefix ("core", "pbft",
// "minbft"). Call Start to begin processing.
func NewHost(name string, opts Options, x *statemachine.Executor, hd Handlers) (*Host, error) {
	h := &Host{
		Cfg: opts.Config, Ep: opts.Endpoint, id: opts.ID, hd: hd,
		Keys:     crypto.NewKeyStore(opts.ID, crypto.NewKeyFromSeed(opts.Config.KeySeed)),
		Met:      newMetrics(opts.Telemetry, name),
		CoordBox: cop.NewMailbox[any](),
		suspects: make(map[timeline.View]map[uint32]bool),
		Watchdog: newWatchdog(name, opts.Config.ViewChangeTimeout, opts.Now),
	}
	if opts.DataDir != "" {
		// The seal store first: a protocol's sealed counters gate the rest.
		seals, err := wal.NewSealStore(filepath.Join(opts.DataDir, "seal"))
		if err != nil {
			return nil, err
		}
		log, recovered, err := wal.Open(filepath.Join(opts.DataDir, "wal"), wal.Options{Telemetry: opts.Telemetry})
		if err != nil {
			return nil, err
		}
		h.Seals, h.log, h.recovered = seals, log, recovered.Checkpoint
		replay(x, recovered, opts.Telemetry)
	}
	var credit func(reqs int)
	if hd.Pillar != nil {
		h.PillarBox = make([]*cop.Mailbox[any], h.Cfg.Pillars)
		for u := range h.PillarBox {
			h.PillarBox[u] = cop.NewMailbox[any]()
		}
		// The batch goes to the pillar owning order o, which certifies
		// and multicasts it.
		h.Seq = newSequencer(h.Cfg, h.id, h.View, h.Ep, h.Met,
			func(u uint32, v timeline.View, o timeline.Order, batch []*message.Request) {
				h.PillarBox[u].Put(Propose{View: v, Order: o, Batch: batch})
			})
		credit = h.Seq.Credit
	}
	h.replies = reply.NewStage(h.id, h.Keys, h.Ep, 0, opts.Telemetry)
	h.Exec = newExecLoop(x, h.Cfg, h.Met, h.replies, credit,
		func(v *statemachine.CheckpointView) { h.CoordBox.Put(v) }, h.NoteProgress)
	h.committed.Store(uint64(x.LastExecuted()))
	h.standing.Store(&Standing{})
	h.verified = opts.Telemetry.Counter("hybster_verify_verified_total", "request authenticators verified on the inbound path")
	h.rejected = opts.Telemetry.Counter("hybster_verify_rejected_total", "messages rejected on the inbound path for a forged request authenticator")
	h.gauges()
	return h, nil
}

// ID returns the replica ID.
func (h *Host) ID() uint32 { return h.id }

// View returns the replica's installed view.
func (h *Host) View() timeline.View { return timeline.View(h.curView.Load()) }

// LastExecuted returns the highest executed order number (diagnostics
// and tests).
func (h *Host) LastExecuted() timeline.Order { return h.Exec.LastExecuted() }

// Telemetry returns the replica's telemetry bundle (nil when
// disabled); the ops server and cluster introspection read through it.
func (h *Host) Telemetry() *telemetry.Telemetry { return h.Met.tel }

// Start launches the replica's goroutines — one per pillar, the
// execution stage, the coordinator loop and the ticker — and installs
// the transport handler.
func (h *Host) Start() {
	h.publish()
	h.Ep.Handle(h.route)
	for u, box := range h.PillarBox {
		h.spawn(func() { drain(box, func(ev any) { h.hd.Pillar(uint32(u), ev) }) })
	}
	h.spawn(h.Exec.run)
	h.spawn(func() { drain(h.CoordBox, h.coord) })
	h.spawn(func() {
		h.runTicker(func() {
			for _, box := range h.PillarBox {
				box.Put(Tick{})
			}
			h.CoordBox.Put(Tick{})
		})
	})
}

// coord handles one coordinator-mailbox event, then publishes the
// standing: a SUSPECT is the Host's, anything else the protocol's.
func (h *Host) coord(ev any) {
	switch v := ev.(type) {
	case InMsg:
		if s, ok := v.Msg.(*message.Suspect); ok {
			h.handleSuspect(s.Replica, s.View)
			h.publish()
			return
		}
	case Tick:
		h.resuspect()
	}
	h.hd.Coord(ev)
	h.publish()
}

func (h *Host) spawn(fn func()) {
	h.wg.Add(1)
	go func() { defer h.wg.Done(); fn() }()
}

// drain is the event loop of one mailbox. It fetches in batches: under
// load one lock round-trip yields a burst of events instead of paying
// the lock per event.
func drain(box *cop.Mailbox[any], handle func(ev any)) {
	batch := make([]any, 0, 32)
	for {
		events, ok := box.GetBatch(batch[:0])
		if !ok {
			return
		}
		for _, ev := range events {
			handle(ev)
		}
	}
}

// Stop shuts the replica down gracefully and waits for its goroutines;
// a durable replica seals exact counter values in the protocol's Close
// hook and then flushes and closes its log, so a subsequent boot
// resumes warm. Stop is idempotent and safe on a replica that was
// never started.
func (h *Host) Stop() { h.stop(true) }

// Kill crash-stops the replica: goroutines are torn down (an
// in-process harness cannot leak them), but durable state is left
// exactly as kill -9 would leave it — the Close hook takes no
// exact-value seal, and the log is abandoned with its unsynced tail
// torn mid-frame — so a cold restart exercises the genuine
// crash-recovery path. For a volatile replica Kill equals Stop.
func (h *Host) Kill() { h.stop(false) }

func (h *Host) stop(graceful bool) {
	h.stopOnce.Do(func() {
		close(h.stopped)
		_ = h.Ep.Close()
		for _, box := range h.PillarBox {
			box.Close()
		}
		h.Exec.close()
		h.CoordBox.Close()
		h.wg.Wait()
		// The exec loop is done submitting; drain outstanding replies.
		h.replies.Close()
		h.hd.Close(graceful)
		// After the hook, so counters are sealed before the log closes.
		switch {
		case h.log == nil:
		case graceful:
			_ = h.log.Close()
		default:
			_ = h.log.Abandon() // the torn tail a real crash leaves
		}
	})
}

// ckptBox is the mailbox of the pillar running the checkpoint instance
// of order o.
func (h *Host) ckptBox(o timeline.Order) *cop.Mailbox[any] {
	return h.PillarBox[h.Cfg.CheckpointPillar(o)]
}

// route is the whole inbound path: classify the message, check the
// client authenticators it carries, deliver it. All of it runs on the
// goroutine that holds the sender's link (a TCP read loop; on memnet
// the link goroutine, or the sender itself when the link was idle): a
// link hands over its sender's messages one at a time in FIFO order, so
// events reach the mailboxes in arrival order, the MACs stay off the
// pillars, and a slow check delays only its own sender's stream while
// other senders' links verify in parallel.
func (h *Host) route(from uint32, m message.Message) {
	if s, ok := m.(*message.Suspect); ok {
		// Only a replica suspects: a client's SUSPECT verifies too.
		if from < uint32(h.Cfg.N) && s.Replica == from && s.Auth.Sender == from &&
			crypto.VerifyAuthenticator(h.Keys, s.Auth, s.Digest()) {
			h.CoordBox.Put(InMsg{From: from, Msg: s})
		}
		return
	}
	r := h.hd.Classify(m)
	if r.To == Drop {
		return
	}
	verified := len(r.Verify) > 0 && h.authentic(r.Verify)
	// A batch with a forged client authenticator dies here, before it
	// can occupy a pillar.
	deliver := verified || len(r.Verify) == 0
	var box *cop.Mailbox[any]
	switch r.To {
	case ToSequencer:
		// A forged request is never admitted.
		if verified {
			h.NoteWork()
			h.Seq.admit(r.Verify[0])
		}
		return
	case ToPillar:
		box = h.PillarBox[h.Cfg.PillarOf(r.Order)]
	case ToCkptPillar:
		box = h.ckptBox(r.Order)
	case ToCoord:
		// A coordinator loop gets a forged batch too, marked unverified:
		// MinBFT consumes every sender's UI counters strictly in order,
		// so dropping the message here would wedge the link — all later
		// counters would wait in holdback forever. Its loop re-checks
		// and rejects the batch after the counter bookkeeping.
		box, deliver = h.CoordBox, true
	}
	if deliver {
		box.Put(InMsg{From: from, Msg: m, Verified: verified})
	}
}

// authentic checks every request's client authenticator against this
// replica's keys and counts the verdict.
func (h *Host) authentic(reqs []*message.Request) bool {
	for _, r := range reqs {
		if !crypto.VerifyAuthenticator(h.Keys, r.Auth, r.Digest()) {
			h.rejected.Inc()
			return false
		}
	}
	h.verified.Add(uint64(len(reqs)))
	return true
}

// gauges registers the sampled gauges the sequencer and execution stage
// do not; MinBFT, without pillars, names all but the view its own way.
func (h *Host) gauges() {
	m := h.Met
	m.GaugeFunc("view", "current stable view", func() float64 { return float64(h.curView.Load()) })
	if h.Seq == nil {
		return
	}
	m.GaugeFunc("stable_checkpoint", "last stable checkpoint order",
		func() float64 { return float64(h.standing.Load().Stable) })
	for u, box := range h.PillarBox {
		m.GaugeFunc("pillar_mailbox_depth", "queued pillar events",
			func() float64 { return float64(box.Len()) }, PillarLabel(uint32(u)))
	}
	m.GaugeFunc("exec_mailbox_depth", "queued execution events",
		func() float64 { return float64(h.Exec.inbox.Len()) })
	m.GaugeFunc("coord_mailbox_depth", "queued coordinator events",
		func() float64 { return float64(h.CoordBox.Len()) })
}
