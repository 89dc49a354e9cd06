package wal

import (
	"fmt"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
)

// Record type tags (first payload byte).
const (
	recDecision   uint8 = 1
	recCheckpoint uint8 = 2
)

// DecisionRec is one committed consensus instance: the batch a replica
// delivered to execution for (view, order). Requests ride in their wire
// encoding so the record needs no schema of its own.
type DecisionRec struct {
	View     timeline.View
	Order    timeline.Order
	Requests []*message.Request
}

// CheckpointRec is one stable checkpoint: the digest agreed on by a
// quorum, the proof (quorum of checkpoint announcements), and the state
// needed to restart execution from it. Snapshot and ReplyVector may be
// nil when the local replica never executed to the boundary (it then
// recovers via state transfer instead). The proof's messages are the
// protocol's announcements: *message.Checkpoint or
// *message.PBFTCheckpoint.
type CheckpointRec struct {
	Order       timeline.Order
	Digest      crypto.Digest
	Snapshot    []byte
	ReplyVector []byte
	Proof       []message.Message
}

func (d *DecisionRec) encode() []byte {
	e := message.NewEncoder(64)
	e.U8(recDecision)
	e.U64(uint64(d.View))
	e.U64(uint64(d.Order))
	e.Len(len(d.Requests))
	for _, r := range d.Requests {
		e.VarBytes(message.Marshal(r))
	}
	return e.Bytes()
}

func (c *CheckpointRec) encode() []byte {
	e := message.NewEncoder(64 + len(c.Snapshot) + len(c.ReplyVector))
	e.U8(recCheckpoint)
	e.U64(uint64(c.Order))
	e.Bytes32(c.Digest)
	e.VarBytes(c.Snapshot)
	e.VarBytes(c.ReplyVector)
	e.CheckpointProof(c.Proof)
	return e.Bytes()
}

// DecodeRecord parses one record payload, returning *DecisionRec or
// *CheckpointRec. It never panics, whatever the input — the WAL decoder
// is on the crash-recovery path and fuzzed like the wire codec.
func DecodeRecord(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	d := message.NewDecoder(payload)
	switch tag := d.U8(); tag {
	case recDecision:
		rec := &DecisionRec{
			View:  timeline.View(d.U64()),
			Order: timeline.Order(d.U64()),
		}
		n := d.Len(64)
		for i := 0; i < n && d.Err() == nil; i++ {
			m, err := message.Unmarshal(d.VarBytes())
			if err != nil {
				return nil, fmt.Errorf("%w: request %d: %v", ErrCorrupt, i, err)
			}
			r, ok := m.(*message.Request)
			if !ok {
				return nil, fmt.Errorf("%w: request %d: unexpected %T", ErrCorrupt, i, m)
			}
			rec.Requests = append(rec.Requests, r)
		}
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return rec, nil
	case recCheckpoint:
		rec := &CheckpointRec{Order: timeline.Order(d.U64())}
		rec.Digest = d.Bytes32()
		rec.Snapshot = cloneOrNil(d.VarBytes())
		rec.ReplyVector = cloneOrNil(d.VarBytes())
		rec.Proof = d.CheckpointProof()
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("%w: unknown record tag %d", ErrCorrupt, tag)
	}
}

func cloneOrNil(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
