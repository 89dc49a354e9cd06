// Package engine is what Hybster (internal/core), PBFTcop/HybridPBFT
// (internal/pbft) and MinBFT (internal/minbft) have in common: §5.3's
// consensus-oriented pipeline minus everything the trusted subsystem
// certifies. It owns
//
//   - the Host: key store, inbound routing (classify, check client
//     authenticators on the sender's transport goroutine, deliver),
//     reply stage, pillar and coordinator mailboxes with their one
//     drain loop, the Start/Stop/Kill goroutine lifecycle, the
//     installed and the pending view, and with a data dir the durable
//     log — decisions and stable checkpoints appended as they happen,
//     replayed at boot — plus the seal store a protocol's trusted
//     counters seal to;
//   - the Sequencer: request admission, batching and order-number
//     assignment for the replica's proposal slots (core, pbft);
//   - the ExecLoop: in-order delivery, reply hand-off, checkpoint
//     boundaries, state installation (all three);
//   - the Watchdog: pending-work tracking, the health probes, the
//     exponential view-change patience and the tick source (all three);
//   - Checkpoints: the checkpoint sub-protocol — candidates, quorum
//     counting, retransmission, stability, window advance, the stable
//     checkpoint's log record and its adoption at boot — the one rule
//     for what a quorum of announcements certifies, the state-transfer
//     requester/server, and the install step of every view change
//     (EnterView), generic over the checkpoint message type;
//   - Metrics: the metric handles, gauges and trace helpers under the
//     protocol's hybster_<proto>_ prefix.
//
// A protocol supplies plain functions for the few things that differ
// (Handlers: how a message is classified, what a pillar and the
// coordinator do with an event, what to release on shutdown; how one
// checkpoint announcement is certified) and keeps what the paper says
// differs: slots and phases, certificate types, view-change rules and
// their tick ladders, sealed trusted-counter state.
//
// The package cannot live in internal/cop: transport imports
// cop.Mailbox, and the sequencer relays requests over a
// transport.Endpoint.
package engine

import "hybster/internal/message"

// InMsg is an inbound protocol message tagged with its sender.
// Verified marks a request-bearing message whose client authenticators
// Host.route checked and found valid. A pillar is never handed any
// other request-bearing message, so only a coordinator loop reads it:
// MinBFT's gets a forged batch too, unverified, and rejects it after
// its counter bookkeeping.
type InMsg struct {
	From     uint32
	Msg      message.Message
	Verified bool
}

// Tick is the periodic event the Host posts to every mailbox; it
// drives retransmission, gap filling and the view-change timers.
type Tick struct{}
