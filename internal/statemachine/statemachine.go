// Package statemachine contains the application-facing side of the
// replication stack: the Application interface a replicated service
// implements, and the Executor — the execution stage that delivers
// committed batches to the service strictly in order-number sequence,
// buffers out-of-order completions from parallel pillars, deduplicates
// client requests through a reply cache, and produces the state and
// return-value digests checkpoints are built from (§5.2.2).
package statemachine

import (
	"fmt"
	"sort"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
)

// Application is a deterministic replicated service. All replicas
// execute the same requests in the same order, so Execute must be a
// pure function of the current state and its arguments.
type Application interface {
	// Execute applies one request and returns its result.
	Execute(client uint32, payload []byte, readOnly bool) []byte
	// Snapshot serializes the full service state.
	Snapshot() []byte
	// Restore replaces the service state with a snapshot.
	Restore(snapshot []byte) error
}

// SnapshotViewer is an optional Application capability for cheap
// checkpointing: SnapshotView returns a closure that serializes the
// state exactly as it is NOW, but may be invoked later, from another
// goroutine, while the application keeps executing. Implementations
// typically clone the state structurally under their own lock (copy-
// on-write at checkpoint granularity) and leave the byte encoding to
// the closure. Applications without it fall back to a synchronous
// Snapshot on the execution loop.
type SnapshotViewer interface {
	SnapshotView() func() []byte
}

// Reply is the outcome of executing one request.
type Reply struct {
	Client uint32
	Seq    uint64
	Result []byte
	// Cached is true when the reply was served from the reply cache
	// because the request had already been executed.
	Cached bool
}

// Executed reports the delivery of one consensus instance.
type Executed struct {
	Order   timeline.Order
	Replies []Reply
}

// replyEntry is the cached last reply of one client — the "vector of
// return values containing an entry for the last requests of each
// client" of §5.2.2.
type replyEntry struct {
	Seq    uint64
	Result []byte
}

// Executor is the execution stage. It is confined to a single
// goroutine (the execution loop of a replica).
type Executor struct {
	app     app
	next    timeline.Order
	pending map[timeline.Order][]*message.Request
	replies map[uint32]replyEntry
}

// app wraps Application so a nil check happens once.
type app struct{ Application }

// NewExecutor creates an execution stage over the given application,
// starting delivery at order number 1.
func NewExecutor(a Application) *Executor {
	if a == nil {
		panic("statemachine: nil application")
	}
	return &Executor{
		app:     app{a},
		next:    1,
		pending: make(map[timeline.Order][]*message.Request),
		replies: make(map[uint32]replyEntry),
	}
}

// NextOrder returns the order number the executor will deliver next.
func (e *Executor) NextOrder() timeline.Order { return e.next }

// LastExecuted returns the highest order number already delivered.
func (e *Executor) LastExecuted() timeline.Order { return e.next - 1 }

// Pending returns the number of buffered out-of-order instances.
func (e *Executor) Pending() int { return len(e.pending) }

// Buffer stores a committed instance without delivering anything. It
// returns false if the order was already executed or already buffered.
func (e *Executor) Buffer(o timeline.Order, batch []*message.Request) bool {
	if o < e.next {
		return false
	}
	if _, dup := e.pending[o]; dup {
		return false
	}
	e.pending[o] = batch
	return true
}

// Step delivers the next instance if it is buffered, or returns nil.
// Separating Buffer and Step lets the execution loop observe state
// between deliveries — checkpoints must snapshot exactly at interval
// boundaries.
func (e *Executor) Step() *Executed {
	b, ok := e.pending[e.next]
	if !ok {
		return nil
	}
	delete(e.pending, e.next)
	ex := e.execute(e.next, b)
	e.next++
	return &ex
}

// Submit hands a committed instance to the execution stage. Instances
// may arrive in any order (pillars complete independently); batches are
// buffered and delivered strictly in sequence. An empty batch is a
// no-op instance closing a gap. The returned slice lists every instance
// that became deliverable, in delivery order. Re-submission of an
// already-executed order is ignored.
func (e *Executor) Submit(o timeline.Order, batch []*message.Request) []Executed {
	if !e.Buffer(o, batch) {
		return nil
	}
	var out []Executed
	for {
		ex := e.Step()
		if ex == nil {
			break
		}
		out = append(out, *ex)
	}
	return out
}

// execute runs one batch through the application, consulting the reply
// cache for duplicates.
func (e *Executor) execute(o timeline.Order, batch []*message.Request) Executed {
	ex := Executed{Order: o}
	for _, r := range batch {
		if last, ok := e.replies[r.Client]; ok && r.Seq <= last.Seq {
			// Duplicate or old request: do not re-execute; answer the
			// most recent request from the cache (PBFT-style at-most-
			// once semantics).
			if r.Seq == last.Seq {
				ex.Replies = append(ex.Replies, Reply{
					Client: r.Client, Seq: r.Seq, Result: last.Result, Cached: true,
				})
			}
			continue
		}
		res := e.app.Execute(r.Client, r.Payload, r.ReadOnly)
		e.replies[r.Client] = replyEntry{Seq: r.Seq, Result: res}
		ex.Replies = append(ex.Replies, Reply{Client: r.Client, Seq: r.Seq, Result: res})
	}
	return ex
}

// CheckpointView captures the executor's checkpoint state at an
// interval boundary without serializing the application synchronously:
// the reply vector is marshaled eagerly (it is executor-owned and
// mutates with the very next delivery) while the application snapshot
// is deferred behind a SnapshotView closure. Materialization — the
// expensive encode plus the digest hashes — then happens on whichever
// goroutine consumes the view (the coordinator), off the execution
// loop. A CheckpointView is single-consumer: its methods memoize and
// are not safe for concurrent use.
type CheckpointView struct {
	// Order is the checkpoint boundary the view was taken at.
	Order timeline.Order

	view func() []byte
	rv   []byte

	snapshot []byte
	taken    bool
}

// CheckpointView snapshots the executor's checkpoint state at the
// current execution point. Must be called exactly at the interval
// boundary, before the next instance is delivered.
func (e *Executor) CheckpointView() *CheckpointView {
	cv := &CheckpointView{Order: e.next - 1, rv: e.marshalReplies()}
	if sv, ok := e.app.Application.(SnapshotViewer); ok {
		cv.view = sv.SnapshotView()
	} else {
		// No view capability: serialize now (on the caller's loop), the
		// pre-SnapshotViewer behavior.
		b := e.app.Snapshot()
		cv.view = func() []byte { return b }
	}
	return cv
}

// Snapshot materializes the application snapshot (memoized).
func (v *CheckpointView) Snapshot() []byte {
	if !v.taken {
		v.snapshot = v.view()
		v.taken = true
	}
	return v.snapshot
}

// ReplyVector returns the reply cache as of the boundary.
func (v *CheckpointView) ReplyVector() []byte { return v.rv }

// StateDigest returns the checkpoint digest of the view: H(snapshot)
// combined with H(reply vector).
func (v *CheckpointView) StateDigest() crypto.Digest {
	return crypto.Combine(crypto.Hash(v.Snapshot()), crypto.Hash(v.rv))
}

// ReplyVectorDigest folds the reply cache into a digest. It is combined
// with the application state digest in CHECKPOINT messages so that a
// fallen-behind replica obtaining the state also obtains provably
// correct return values for skipped requests (§5.2.2).
func (e *Executor) ReplyVectorDigest() crypto.Digest {
	return crypto.Hash(e.marshalReplies())
}

// StateDigest returns the checkpoint digest at the current execution
// point: H(application snapshot) combined with the reply-vector digest.
func (e *Executor) StateDigest() crypto.Digest {
	return crypto.Combine(crypto.Hash(e.app.Snapshot()), e.ReplyVectorDigest())
}

// Snapshot serializes the application state for checkpointing and
// state transfer.
func (e *Executor) Snapshot() []byte { return e.app.Snapshot() }

// ReplyVector serializes the reply cache for state transfer.
func (e *Executor) ReplyVector() []byte { return e.marshalReplies() }

// InstallState replaces the executor's state with a transferred
// snapshot taken at checkpoint order ckpt: the application state, the
// reply vector, and the delivery cursor. Buffered instances at or below
// ckpt are dropped; later ones are kept and may become deliverable
// immediately: the caller delivers them with Step.
func (e *Executor) InstallState(ckpt timeline.Order, snapshot, replyVector []byte) error {
	if ckpt < e.next-1 {
		return fmt.Errorf("statemachine: refusing to move backwards: at %d, snapshot %d", e.next-1, ckpt)
	}
	if err := e.app.Restore(snapshot); err != nil {
		return fmt.Errorf("statemachine: restore: %w", err)
	}
	replies, err := unmarshalReplies(replyVector)
	if err != nil {
		return err
	}
	e.replies = replies
	e.next = ckpt + 1
	for o := range e.pending {
		if o <= ckpt {
			delete(e.pending, o)
		}
	}
	return nil
}

// marshalReplies serializes the reply cache deterministically (sorted
// by client ID) so its digest is identical across replicas.
func (e *Executor) marshalReplies() []byte {
	clients := make([]uint32, 0, len(e.replies))
	for c := range e.replies {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	enc := message.NewEncoder(16 + 48*len(clients))
	enc.U32(uint32(len(clients)))
	for _, c := range clients {
		entry := e.replies[c]
		enc.U32(c)
		enc.U64(entry.Seq)
		enc.VarBytes(entry.Result)
	}
	return enc.Bytes()
}

func unmarshalReplies(buf []byte) (map[uint32]replyEntry, error) {
	d := message.NewDecoder(buf)
	n := d.Len(16)
	replies := make(map[uint32]replyEntry, n)
	for i := 0; i < n; i++ {
		c := d.U32()
		seq := d.U64()
		res := d.VarBytes()
		if d.Err() != nil {
			break
		}
		replies[c] = replyEntry{Seq: seq, Result: append([]byte(nil), res...)}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("statemachine: reply vector: %w", err)
	}
	return replies, nil
}
