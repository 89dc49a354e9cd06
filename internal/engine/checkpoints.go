package engine

import (
	"sync/atomic"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// StableCkpt is a replica's record of the last stable checkpoint;
// Snapshot/RV are nil when local execution never reached it (state
// must then be fetched before serving transfers). Proof is the quorum
// certificate in the protocol's checkpoint message type M.
type StableCkpt[M any] struct {
	Order    timeline.Order
	Digest   crypto.Digest
	Proof    []M
	Snapshot []byte
	RV       []byte
}

// candidate is the materialized form of one own checkpoint boundary:
// the digest announced plus the state needed to serve transfers once
// the checkpoint stabilizes.
type candidate struct {
	digest   crypto.Digest
	snapshot []byte
	rv       []byte
}

// Checkpoints is the replica-local side of checkpointing and state
// transfer: the candidates of own boundaries awaiting stability, the
// stable record, and the STATE-REQUEST/STATE-REPLY requester and
// server. It is confined to the loop that runs the protocol's
// checkpoint bookkeeping (the coordinator; MinBFT's protocol loop);
// only StableOrder may be read from elsewhere.
type Checkpoints[M any] struct {
	cfg  config.Config
	id   uint32
	ep   transport.Endpoint
	wd   *Watchdog
	met  Metrics
	exec *ExecLoop
	// verify checks that proof certifies digest as the state of
	// checkpoint order — the one thing that depends on what the
	// protocol's trusted subsystem signs.
	verify func(order timeline.Order, digest crypto.Digest, proof []*message.Checkpoint) error

	stable     StableCkpt[M]
	stableOrd  atomic.Uint64 // mirrors stable.Order for gauges
	candidates map[timeline.Order]candidate

	lastStateReq time.Time
}

// NewCheckpoints builds the store of replica id.
func NewCheckpoints[M any](cfg config.Config, id uint32, ep transport.Endpoint, wd *Watchdog, met Metrics,
	exec *ExecLoop, verify func(timeline.Order, crypto.Digest, []*message.Checkpoint) error) *Checkpoints[M] {

	return &Checkpoints[M]{
		cfg: cfg, id: id, ep: ep, wd: wd, met: met, exec: exec, verify: verify,
		candidates: make(map[timeline.Order]candidate),
	}
}

// Stable returns the last stable checkpoint (order 0 = genesis).
func (c *Checkpoints[M]) Stable() *StableCkpt[M] { return &c.stable }

// StableOrder is the last stable checkpoint order, readable from any
// goroutine.
func (c *Checkpoints[M]) StableOrder() uint64 { return c.stableOrd.Load() }

// Candidate materializes a checkpoint boundary posted by the execution
// stage: the application snapshot is encoded and hashed here, off the
// delivery path. It returns the digest to announce and whether the
// boundary is still ahead of the stable checkpoint. Boundaries below
// the stable checkpoint are dropped before paying for the encode; one
// that equals it (executed late) completes the stable record so this
// replica can serve transfers for it.
func (c *Checkpoints[M]) Candidate(v *statemachine.CheckpointView) (digest crypto.Digest, ahead bool) {
	if v.Order < c.stable.Order {
		return digest, false
	}
	digest = v.StateDigest()
	if v.Order == c.stable.Order {
		if c.stable.Snapshot == nil && digest == c.stable.Digest {
			c.stable.Snapshot, c.stable.RV = v.Snapshot(), v.ReplyVector()
		}
		return digest, false
	}
	c.candidates[v.Order] = candidate{digest: digest, snapshot: v.Snapshot(), rv: v.ReplyVector()}
	// Keep only the two newest candidates; older ones can no longer
	// become the latest stable checkpoint first.
	for o := range c.candidates {
		if o+2*c.cfg.CheckpointInterval <= v.Order {
			delete(c.candidates, o)
		}
	}
	return digest, true
}

// Adopt records st as the stable checkpoint if it is newer than the
// current one and reports whether it was. A record without state takes
// it from the matching own candidate.
func (c *Checkpoints[M]) Adopt(st StableCkpt[M]) bool {
	if st.Order <= c.stable.Order {
		return false
	}
	if cand, ok := c.candidates[st.Order]; ok && st.Snapshot == nil && cand.digest == st.Digest {
		st.Snapshot, st.RV = cand.snapshot, cand.rv
	}
	c.stable = st
	c.stableOrd.Store(uint64(st.Order))
	for o := range c.candidates {
		if o <= st.Order {
			delete(c.candidates, o)
		}
	}
	return true
}

// RequestState asks the group for the newest stable state,
// rate-limited to one round per second.
func (c *Checkpoints[M]) RequestState() {
	now := c.wd.Now()
	if now.Sub(c.lastStateReq) < time.Second {
		return
	}
	c.lastStateReq = now
	req := &message.StateRequest{Replica: c.id, From: c.exec.LastExecuted() + 1}
	transport.Multicast(c.ep, c.cfg.N, req)
}

// CatchUp requests state while the stable checkpoint lies beyond what
// local execution can reach (the decisions below it are gone from the
// group's logs, so state transfer is the only way forward). Call it
// when a checkpoint is adopted and on every tick: a one-shot request
// can be lost, no further event would re-trigger it, and if the
// laggards hold the quorum margin the whole cluster stops committing.
// RequestState rate-limits the actual traffic.
func (c *Checkpoints[M]) CatchUp() {
	if c.stable.Order > c.exec.LastExecuted() {
		c.RequestState()
	}
}

// Serve answers a STATE-REQUEST with the stable checkpoint if this
// replica holds its state and it covers the requested frontier.
func (c *Checkpoints[M]) Serve(from uint32, req *message.StateRequest) {
	if c.stable.Snapshot == nil || c.stable.Order < req.From {
		return
	}
	// The wire format carries Hybster-type checkpoint proofs; a protocol
	// with another message type sends none, and its receivers verify
	// the state against a checkpoint they already know to be stable.
	proof, _ := any(c.stable.Proof).([]*message.Checkpoint)
	_ = c.ep.Send(from, &message.StateReply{
		Replica:     c.id,
		CkptOrder:   c.stable.Order,
		Snapshot:    c.stable.Snapshot,
		ReplyVector: c.stable.RV,
		Proof:       proof,
	})
}

// Install verifies a STATE-REPLY and hands its snapshot to the
// execution stage. installed reports that execution now stands at the
// transferred checkpoint; adopted that it also became the stable
// checkpoint (it was newer than the one recorded), so the caller must
// slide its windows. view only labels the trace event.
func (c *Checkpoints[M]) Install(rep *message.StateReply, view timeline.View) (installed, adopted bool) {
	if rep.CkptOrder <= c.exec.LastExecuted() {
		return false, false
	}
	digest := crypto.Combine(crypto.Hash(rep.Snapshot), crypto.Hash(rep.ReplyVector))
	if err := c.verify(rep.CkptOrder, digest, rep.Proof); err != nil {
		return false, false
	}
	if err := c.exec.install(rep.CkptOrder, rep.Snapshot, rep.ReplyVector, c.wd.stopped); err != nil {
		return false, false
	}
	proof, _ := any(rep.Proof).([]M)
	adopted = c.Adopt(StableCkpt[M]{
		Order: rep.CkptOrder, Digest: digest, Proof: proof,
		Snapshot: rep.Snapshot, RV: rep.ReplyVector,
	})
	if !adopted && rep.CkptOrder == c.stable.Order && c.stable.Snapshot == nil && digest == c.stable.Digest {
		c.stable.Snapshot, c.stable.RV = rep.Snapshot, rep.ReplyVector
	}
	c.met.StateXfers.Inc()
	c.met.Trace(telemetry.EvStateXfer, uint64(view), uint64(rep.CkptOrder), 0, "")
	c.wd.NoteProgress(false)
	return true, adopted
}
