// Package engine is the ordering skeleton Hybster (internal/core),
// PBFTcop/HybridPBFT (internal/pbft) and MinBFT (internal/minbft) have
// in common: §5.3's consensus-oriented pipeline minus everything the
// trusted subsystem certifies. It owns
//
//   - the Sequencer: request admission, batching and order-number
//     assignment for the replica's proposal slots (core, pbft);
//   - the ExecLoop: in-order delivery, reply hand-off, checkpoint
//     boundaries, state installation (all three);
//   - the Watchdog: pending-work tracking, the health probes, the
//     exponential view-change patience and the tick source (all three);
//   - Checkpoints: the checkpoint-candidate store and the state-transfer
//     requester/server, generic over the checkpoint message type;
//   - Metrics: the metric handles, gauges and trace helpers under the
//     protocol's hybster_<proto>_ prefix.
//
// A protocol supplies plain functions for the few things that differ
// (how a batch is proposed, where the execution stage posts checkpoint
// boundaries and progress, how a checkpoint proof is verified) and
// keeps what the paper says differs: slots and phases, certificate
// types, view-change rules, recovery.
//
// The package cannot live in internal/cop: transport imports
// cop.Mailbox, and the sequencer relays requests over a
// transport.Endpoint.
package engine

import "hybster/internal/message"

// InMsg is an inbound protocol message tagged with its sender.
// Verified marks messages whose client authenticators were already
// checked by the parallel verify stage; protocol loops re-check
// sequentially when it is unset.
type InMsg struct {
	From     uint32
	Msg      message.Message
	Verified bool
}

// Tick is the periodic event engines post from Watchdog.RunTicker; it
// drives retransmission, gap filling and the view-change timers.
type Tick struct{}
