package core

import (
	"errors"
	"fmt"
	"sort"

	"hybster/internal/message"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

func sortPrepares(ps []*message.Prepare) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Order < ps[j].Order })
}

// Verification errors.
var (
	errBadIssuer    = errors.New("core: certificate issuer mismatch")
	errBadKind      = errors.New("core: wrong certificate kind")
	errBadValue     = errors.New("core: certificate value mismatch")
	errBadSender    = errors.New("core: sender is not the expected proposer")
	errIncompleteVC = errors.New("core: view-change discloses fewer prepares than its counter proves")
)

// verifyPrepare validates a leader proposal: checkPrepare's checks,
// then the certificate's MAC.
func (e *Engine) verifyPrepare(tx Certifier, m *message.Prepare, from uint32) error {
	if err := e.checkPrepare(m, from); err != nil {
		return err
	}
	return tx.Verify(m.Cert, m.Digest())
}

// checkPrepare runs every check of a leader proposal short of the MAC:
// the sender must be the proposer of (view, order) and the certificate
// an independent counter certificate with the predefined value
// [view|order] issued by the TrInX instance of the responsible pillar.
// A follower that acknowledges the PREPARE as it arrives has the MAC
// checked inside the ECALL that certifies its COMMIT
// (pillar.acknowledgeOnArrival). The batch's client authenticators are
// the Host's inbound route's to check, on the sender's link, before the
// PREPARE reaches a pillar.
func (e *Engine) checkPrepare(m *message.Prepare, from uint32) error {
	proposer := e.Cfg.ProposerOf(m.View, m.Order)
	if from != proposer {
		return errBadSender
	}
	return e.checkPrepareCert(m, proposer)
}

// verifyEmbeddedPrepare validates a prepare carried inside
// VIEW-CHANGE, NEW-VIEW, or NEW-VIEW-ACK messages, where the original
// sender is no longer available and the proposer may be either the
// rotation proposer of the prepare's view or that view's leader (the
// leader re-proposes all transferred instances in its NEW-VIEW).
func (e *Engine) verifyEmbeddedPrepare(tx Certifier, m *message.Prepare) error {
	rot := e.Cfg.ProposerOf(m.View, m.Order)
	ld := e.Cfg.LeaderOf(m.View)
	issuer := m.Cert.Issuer.Replica()
	if issuer != rot && issuer != ld {
		return errBadIssuer
	}
	if err := e.checkPrepareCert(m, issuer); err != nil {
		return err
	}
	return tx.Verify(m.Cert, m.Digest())
}

// checkPrepareCert checks everything of a prepare's certificate but
// its MAC against the given proposer.
func (e *Engine) checkPrepareCert(m *message.Prepare, proposer uint32) error {
	pillar := e.Cfg.PillarOf(m.Order)
	if m.Cert.Kind != trinx.Independent {
		return errBadKind
	}
	if m.Cert.Issuer != trinx.MakeInstanceID(proposer, pillar) {
		return fmt.Errorf("%w: %s", errBadIssuer, m.Cert.Issuer)
	}
	if m.Cert.Value != uint64(timeline.Pack(m.View, m.Order)) {
		return errBadValue
	}
	return nil
}

// verifyCommit validates a follower acknowledgment analogously.
func (e *Engine) verifyCommit(tx Certifier, m *message.Commit) error {
	pillar := e.Cfg.PillarOf(m.Order)
	if m.Cert.Kind != trinx.Independent {
		return errBadKind
	}
	if m.Cert.Issuer != trinx.MakeInstanceID(m.Replica, pillar) {
		return errBadIssuer
	}
	if m.Cert.Value != uint64(timeline.Pack(m.View, m.Order)) {
		return errBadValue
	}
	return tx.Verify(m.Cert, m.Digest())
}

// verifyCheckpoint validates a checkpoint announcement — a trusted MAC
// (continuing certificate with value == previous value) from the
// announcing replica (§5.2.2) — and reduces it to what the quorum count
// reads.
func (e *Engine) verifyCheckpoint(tx Certifier, m *message.Checkpoint) (announcement, error) {
	a := announcement{Replica: m.Replica, Order: m.Order, Digest: m.StateDigest, Msg: m}
	if m.Cert.Kind != trinx.Continuing || m.Cert.Value != m.Cert.Prev {
		return a, errBadKind
	}
	if m.Cert.Issuer.Replica() != m.Replica {
		return a, errBadIssuer
	}
	return a, tx.Verify(m.Cert, m.Digest())
}

// verifyViewChangePart validates one pillar part of a VIEW-CHANGE: the
// continuing certificate with value [to|0], the checkpoint proof (on
// the coordinator's loop, which holds the checkpoint rule), all
// contained prepares, and — the crux of §5.2.3 — completeness: if the
// certificate's previous value proves participation up to o_act in the
// aborted view, a prepare must be disclosed for every class order in
// (ckpt, o_act].
func (e *Engine) verifyViewChangePart(tx Certifier, vc *message.ViewChange) error {
	if vc.To <= vc.From {
		return fmt.Errorf("core: view-change to %d from %d", vc.To, vc.From)
	}
	pillars := uint32(len(e.pillars))
	if vc.Pillar >= pillars {
		return fmt.Errorf("core: view-change names pillar %d of %d", vc.Pillar, pillars)
	}
	if vc.Cert.Kind != trinx.Continuing {
		return errBadKind
	}
	if vc.Cert.Issuer != trinx.MakeInstanceID(vc.Replica, vc.Pillar) {
		return errBadIssuer
	}
	if vc.Cert.Value != uint64(timeline.ViewStart(vc.To)) {
		return errBadValue
	}
	if err := tx.Verify(vc.Cert, vc.Digest()); err != nil {
		return err
	}
	if err := e.coord.ck.Certified(vc.CkptOrder, vc.CkptDigest, vc.CkptProof); err != nil {
		return err
	}
	disclosed := make(map[timeline.Order]bool, len(vc.Prepares))
	for _, p := range vc.Prepares {
		if e.Cfg.PillarOf(p.Order) != vc.Pillar {
			return fmt.Errorf("core: prepare for order %d in part of pillar %d", p.Order, vc.Pillar)
		}
		if err := e.verifyEmbeddedPrepare(tx, p); err != nil {
			return err
		}
		disclosed[p.Order] = true
	}
	// Completeness: the unforgeable previous counter value [pv|po]
	// forces disclosure of every instance the replica acted on in the
	// view it last participated in.
	prev := timeline.Point(vc.Cert.Prev)
	pv, po := prev.Unpack()
	if pv == vc.From && po > vc.CkptOrder {
		for o := vc.CkptOrder + 1; o <= po; o++ {
			if e.Cfg.PillarOf(o) != vc.Pillar {
				continue
			}
			if !disclosed[o] {
				return fmt.Errorf("%w: order %d missing (o_act %d)", errIncompleteVC, o, po)
			}
		}
	}
	return nil
}

// verifyNewViewAckPart validates one pillar part of a NEW-VIEW-ACK: a
// trusted MAC plus valid embedded prepares of the acknowledged view.
func (e *Engine) verifyNewViewAckPart(tx Certifier, a *message.NewViewAck) error {
	if a.Cert.Kind != trinx.Continuing || a.Cert.Value != a.Cert.Prev {
		return errBadKind
	}
	if a.Cert.Issuer.Replica() != a.Replica {
		return errBadIssuer
	}
	if err := tx.Verify(a.Cert, a.Digest()); err != nil {
		return err
	}
	for _, p := range a.Prepares {
		if e.Cfg.PillarOf(p.Order) != a.Pillar {
			return fmt.Errorf("core: ack prepare for order %d in part of pillar %d", p.Order, a.Pillar)
		}
		if err := e.verifyEmbeddedPrepare(tx, p); err != nil {
			return err
		}
	}
	return nil
}
