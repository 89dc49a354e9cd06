// Package config holds the static configuration of a replica group: its
// size and fault threshold, the pillar layout of the consensus-oriented
// parallelization, batching and checkpointing parameters, and the
// deterministic assignments every replica must agree on (leader of a
// view, pillar of an order number, pillar of a checkpoint).
package config

import (
	"fmt"
	"strings"
	"time"

	"hybster/internal/timeline"
)

// Protocol selects a replication protocol configuration of §6.
type Protocol int

// The protocol configurations the evaluation compares.
const (
	// HybsterS is Hybster's sequential basic protocol (one pillar).
	HybsterS Protocol = iota
	// HybsterX is the parallelized Hybster (one pillar per core).
	HybsterX
	// PBFTcop is PBFT with consensus-oriented parallelization and MAC
	// authenticators.
	PBFTcop
	// HybridPBFT is PBFTcop with TrInX trusted MACs.
	HybridPBFT
	// MinBFT is the sequential USIG-based baseline.
	MinBFT
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case HybsterS:
		return "HybsterS"
	case HybsterX:
		return "HybsterX"
	case PBFTcop:
		return "PBFTcop"
	case HybridPBFT:
		return "HybridPBFT"
	case MinBFT:
		return "MinBFT"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol is the inverse of String, ignoring case; "pbft" is
// accepted for PBFTcop.
func ParseProtocol(name string) (Protocol, error) {
	if strings.EqualFold(name, "pbft") {
		return PBFTcop, nil
	}
	for p := HybsterS; p <= MinBFT; p++ {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("config: unknown protocol %q", name)
}

// ReplicasFor returns the minimum group size tolerating f faults under
// protocol p.
func ReplicasFor(p Protocol, f int) int {
	switch p {
	case PBFTcop, HybridPBFT:
		return 3*f + 1
	default:
		return 2*f + 1
	}
}

// Config is the static group configuration, identical at every replica.
type Config struct {
	// Protocol selects the replication protocol.
	Protocol Protocol
	// N is the number of replicas.
	N int
	// Pillars is the number of parallel processing units per replica
	// (1 for the sequential configurations).
	Pillars int
	// BatchSize is the maximum number of requests ordered by one
	// consensus instance.
	BatchSize int
	// CheckpointInterval is the number of instances between
	// checkpoints.
	CheckpointInterval timeline.Order
	// WindowSize is the span of the ordering window (high minus low
	// water mark); must be a multiple of CheckpointInterval and at
	// least twice the interval so ordering can proceed while a
	// checkpoint stabilizes.
	WindowSize timeline.Order
	// RotateLeader distributes proposals round-robin over all
	// replicas instead of a fixed per-view leader (§6.2).
	RotateLeader bool
	// ViewChangeTimeout is how long a replica waits for progress on a
	// pending instance before suspecting the leader.
	ViewChangeTimeout time.Duration
	// KeySeed seeds the group's symmetric key material.
	KeySeed string
}

// Default returns a working configuration for protocol p tolerating one
// fault.
func Default(p Protocol) Config {
	pillars := 1
	if p == HybsterX || p == PBFTcop || p == HybridPBFT {
		pillars = 4
	}
	return Config{
		Protocol:           p,
		N:                  ReplicasFor(p, 1),
		Pillars:            pillars,
		BatchSize:          16,
		CheckpointInterval: 128,
		WindowSize:         256,
		ViewChangeTimeout:  500 * time.Millisecond,
		KeySeed:            "hybster-default",
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.N < 3 {
		return fmt.Errorf("config: need at least 3 replicas, have %d", c.N)
	}
	min := ReplicasFor(c.Protocol, 1)
	if c.N < min {
		return fmt.Errorf("config: %s needs at least %d replicas, have %d", c.Protocol, min, c.N)
	}
	if c.Pillars < 1 {
		return fmt.Errorf("config: need at least one pillar, have %d", c.Pillars)
	}
	if (c.Protocol == HybsterS || c.Protocol == MinBFT) && c.Pillars != 1 {
		return fmt.Errorf("config: %s is sequential and requires exactly one pillar", c.Protocol)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("config: batch size must be positive, have %d", c.BatchSize)
	}
	if c.CheckpointInterval < 1 {
		return fmt.Errorf("config: checkpoint interval must be positive")
	}
	if c.WindowSize < 2*c.CheckpointInterval {
		return fmt.Errorf("config: window %d must be at least twice the checkpoint interval %d",
			c.WindowSize, c.CheckpointInterval)
	}
	if c.WindowSize%c.CheckpointInterval != 0 {
		return fmt.Errorf("config: window %d must be a multiple of the checkpoint interval %d",
			c.WindowSize, c.CheckpointInterval)
	}
	if c.ViewChangeTimeout <= 0 {
		return fmt.Errorf("config: view-change timeout must be positive")
	}
	return nil
}

// F returns the number of tolerated faults.
func (c Config) F() int {
	switch c.Protocol {
	case PBFTcop, HybridPBFT:
		return (c.N - 1) / 3
	default:
		return (c.N - 1) / 2
	}
}

// Quorum returns the ordering quorum size: ⌈(n+1)/2⌉ = f+1 for the
// hybrid 2f+1 protocols, 2f+1 for PBFT.
func (c Config) Quorum() int {
	switch c.Protocol {
	case PBFTcop, HybridPBFT:
		return 2*c.F() + 1
	default:
		return (c.N + 2) / 2 // ⌈(n+1)/2⌉
	}
}

// LeaderOf returns the leader of view v: replica v mod n.
func (c Config) LeaderOf(v timeline.View) uint32 {
	return uint32(uint64(v) % uint64(c.N))
}

// ProposerOf returns the replica that proposes order number o in view
// v. Without rotation this is the leader of v; with rotation proposals
// round-robin over the group (§6.2), offset by the view so a faulty
// replica does not keep its slot forever.
func (c Config) ProposerOf(v timeline.View, o timeline.Order) uint32 {
	if !c.RotateLeader {
		return c.LeaderOf(v)
	}
	return uint32((uint64(o) + uint64(v)) % uint64(c.N))
}

// PillarOf returns the pillar responsible for order number o — the
// predefined consensus assignment of §5.3.1.
func (c Config) PillarOf(o timeline.Order) uint32 {
	return uint32(uint64(o) % uint64(c.Pillars))
}

// CheckpointPillar returns the pillar carrying out the checkpoint at
// order o, distributed round-robin over pillars (§5.3.2).
func (c Config) CheckpointPillar(o timeline.Order) uint32 {
	return uint32((uint64(o) / uint64(c.CheckpointInterval)) % uint64(c.Pillars))
}

// IsCheckpoint reports whether order o completes a checkpoint interval.
func (c Config) IsCheckpoint(o timeline.Order) bool {
	return o > 0 && o%c.CheckpointInterval == 0
}
