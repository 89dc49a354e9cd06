package config

import (
	"strings"
	"testing"

	"hybster/internal/timeline"
)

func TestDefaultsValidate(t *testing.T) {
	for _, p := range []Protocol{HybsterS, HybsterX, PBFTcop, HybridPBFT, MinBFT} {
		c := Default(p)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestReplicasFor(t *testing.T) {
	cases := []struct {
		p    Protocol
		f, n int
	}{
		{HybsterS, 1, 3}, {HybsterX, 1, 3}, {MinBFT, 1, 3},
		{PBFTcop, 1, 4}, {HybridPBFT, 1, 4},
		{HybsterX, 2, 5}, {PBFTcop, 2, 7},
	}
	for _, c := range cases {
		if got := ReplicasFor(c.p, c.f); got != c.n {
			t.Errorf("ReplicasFor(%s,%d) = %d, want %d", c.p, c.f, got, c.n)
		}
	}
}

func TestQuorumIntersectionProperties(t *testing.T) {
	// 2q > n and n >= q+f must hold for every valid config (§5.2).
	for _, p := range []Protocol{HybsterS, HybsterX, PBFTcop, HybridPBFT, MinBFT} {
		for f := 1; f <= 3; f++ {
			c := Default(p)
			c.N = ReplicasFor(p, f)
			q := c.Quorum()
			if 2*q <= c.N {
				t.Errorf("%s f=%d: quorums do not intersect (2*%d <= %d)", p, f, q, c.N)
			}
			if c.N < q+c.F() {
				t.Errorf("%s f=%d: not enough correct replicas for a quorum (%d < %d+%d)",
					p, f, c.N, q, c.F())
			}
			if q <= c.F() {
				t.Errorf("%s f=%d: quorum %d not larger than f=%d", p, f, q, c.F())
			}
		}
	}
}

func TestHybridQuorumValues(t *testing.T) {
	c := Default(HybsterX) // n=3
	if c.F() != 1 || c.Quorum() != 2 {
		t.Fatalf("n=3: f=%d q=%d, want f=1 q=2", c.F(), c.Quorum())
	}
	c.N = 5
	if c.F() != 2 || c.Quorum() != 3 {
		t.Fatalf("n=5: f=%d q=%d, want f=2 q=3", c.F(), c.Quorum())
	}
	p := Default(PBFTcop) // n=4
	if p.F() != 1 || p.Quorum() != 3 {
		t.Fatalf("pbft n=4: f=%d q=%d, want f=1 q=3", p.F(), p.Quorum())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.N = 2 },
		func(c *Config) { c.Pillars = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.CheckpointInterval = 0 },
		func(c *Config) { c.WindowSize = c.CheckpointInterval },       // too small
		func(c *Config) { c.WindowSize = c.CheckpointInterval*2 + 1 }, // not a multiple
		func(c *Config) { c.ViewChangeTimeout = 0 },
	}
	for i, mutate := range bad {
		c := Default(HybsterX)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	seq := Default(HybsterS)
	seq.Pillars = 2
	if err := seq.Validate(); err == nil {
		t.Error("sequential protocol with 2 pillars accepted")
	}
	pb := Default(PBFTcop)
	pb.N = 3
	if err := pb.Validate(); err == nil {
		t.Error("PBFT with n=3 accepted")
	}
}

func TestLeaderOfCycles(t *testing.T) {
	c := Default(HybsterX)
	for v := timeline.View(0); v < 9; v++ {
		if got := c.LeaderOf(v); got != uint32(uint64(v)%3) {
			t.Errorf("LeaderOf(%d) = %d", v, got)
		}
	}
}

func TestProposerOfRotation(t *testing.T) {
	c := Default(HybsterX)
	if c.ProposerOf(0, 5) != c.LeaderOf(0) {
		t.Fatal("without rotation the proposer must be the leader")
	}
	c.RotateLeader = true
	seen := map[uint32]bool{}
	for o := timeline.Order(0); o < 3; o++ {
		seen[c.ProposerOf(0, o)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("rotation covered %d replicas, want 3", len(seen))
	}
	// The assignment must shift with the view so a faulty proposer
	// loses its slot.
	if c.ProposerOf(0, 0) == c.ProposerOf(1, 0) {
		t.Fatal("rotation does not shift with the view")
	}
}

func TestPillarAssignmentsCoverAndPartition(t *testing.T) {
	c := Default(HybsterX)
	counts := make(map[uint32]int)
	for o := timeline.Order(0); o < 100; o++ {
		p := c.PillarOf(o)
		if int(p) >= c.Pillars {
			t.Fatalf("pillar %d out of range", p)
		}
		counts[p]++
	}
	if len(counts) != c.Pillars {
		t.Fatalf("only %d of %d pillars used", len(counts), c.Pillars)
	}
	for p, n := range counts {
		if n != 25 {
			t.Errorf("pillar %d got %d instances, want 25", p, n)
		}
	}
}

func TestCheckpointPillarRoundRobin(t *testing.T) {
	c := Default(HybsterX)
	c.CheckpointInterval = 10
	c.WindowSize = 40
	first := c.CheckpointPillar(10)
	second := c.CheckpointPillar(20)
	if first == second {
		t.Fatal("consecutive checkpoints on the same pillar")
	}
	if c.CheckpointPillar(10) != c.CheckpointPillar(10+timeline.Order(10*c.Pillars)) {
		t.Fatal("round-robin period wrong")
	}
}

func TestIsCheckpoint(t *testing.T) {
	c := Default(HybsterX)
	c.CheckpointInterval = 10
	c.WindowSize = 20
	if c.IsCheckpoint(0) {
		t.Fatal("order 0 is a checkpoint")
	}
	if !c.IsCheckpoint(10) || !c.IsCheckpoint(20) {
		t.Fatal("multiples of the interval not checkpoints")
	}
	if c.IsCheckpoint(15) {
		t.Fatal("mid-interval order reported as checkpoint")
	}
}

func TestProtocolStringAndParse(t *testing.T) {
	if HybsterX.String() != "HybsterX" || Protocol(99).String() == "" {
		t.Fatal("bad protocol names")
	}
	for p := HybsterS; p <= MinBFT; p++ {
		for _, name := range []string{p.String(), strings.ToLower(p.String())} {
			if got, err := ParseProtocol(name); err != nil || got != p {
				t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	if got, err := ParseProtocol("pbft"); err != nil || got != PBFTcop {
		t.Errorf(`ParseProtocol("pbft") = %v, %v`, got, err)
	}
	for _, name := range []string{"", "raft", "hybster", Protocol(99).String()} {
		if _, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", name)
		}
	}
}
