package workload

import (
	"testing"

	"hybster/internal/apps/coordination"
)

// next returns g's next operation; the stream must not have ended.
func next(t *testing.T, g Generator) Op {
	t.Helper()
	op, ok := g.Next()
	if !ok {
		t.Fatal("generator ended")
	}
	return op
}

// setup returns the creates a coordination stream of `keys` keys opens
// with.
func setup(t *testing.T, g *Coordination, keys int) []Op {
	t.Helper()
	ops := make([]Op, 1+keys)
	for i := range ops {
		ops[i] = next(t, g)
	}
	return ops
}

func TestFixedGenerator(t *testing.T) {
	g := NewFixed(128, 0)
	for i := 0; i < 100; i++ {
		if op := next(t, g); len(op.Payload) != 128 || op.ReadOnly {
			t.Fatalf("op = %+v", op)
		}
	}
	if len(next(t, NewFixed(0, 0)).Payload) != 0 {
		t.Fatal("empty payload not empty")
	}
}

func TestFixedGeneratorEnds(t *testing.T) {
	g := NewFixed(8, 3)
	for i := 0; i < 3; i++ {
		next(t, g)
	}
	for i := 0; i < 2; i++ {
		if _, ok := g.Next(); ok {
			t.Fatal("bounded generator issued a fourth operation")
		}
	}
}

func TestCoordinationSetupCreatesKeySpace(t *testing.T) {
	svc := coordination.New()
	g := NewCoordination(7, 0.5, 64, 8)
	for _, op := range setup(t, g, 8) {
		out := svc.Execute(7, op.Payload, op.ReadOnly)
		res, err := coordination.DecodeResult(out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != coordination.StatusOK {
			t.Fatalf("setup op failed: %v", res.Status)
		}
	}
	if svc.NodeCount() != 9 { // prefix + 8 keys
		t.Fatalf("NodeCount = %d", svc.NodeCount())
	}
}

func TestCoordinationOpsSucceedAgainstService(t *testing.T) {
	svc := coordination.New()
	g := NewCoordination(3, 0.5, 64, 4)
	for _, op := range setup(t, g, 4) {
		svc.Execute(3, op.Payload, op.ReadOnly)
	}
	for i := 0; i < 100; i++ {
		op := next(t, g)
		out := svc.Execute(3, op.Payload, op.ReadOnly)
		res, err := coordination.DecodeResult(out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != coordination.StatusOK {
			t.Fatalf("op %d failed: %v", i, res.Status)
		}
	}
}

func TestCoordinationReadRatio(t *testing.T) {
	for _, ratio := range []float64{0, 0.25, 0.75, 1} {
		g := NewCoordination(1, ratio, 16, 8)
		setup(t, g, 8)
		reads := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if next(t, g).ReadOnly {
				reads++
			}
		}
		got := float64(reads) / n
		if got < ratio-0.05 || got > ratio+0.05 {
			t.Errorf("ratio %.2f: measured %.3f", ratio, got)
		}
	}
}

func TestCoordinationClientsIsolated(t *testing.T) {
	// Two clients' key spaces must not collide, or their creates
	// would conflict during setup.
	svc := coordination.New()
	for _, id := range []uint32{1, 2} {
		g := NewCoordination(id, 0, 16, 4)
		for _, op := range setup(t, g, 4) {
			out := svc.Execute(id, op.Payload, op.ReadOnly)
			res, _ := coordination.DecodeResult(out)
			if res.Status != coordination.StatusOK {
				t.Fatalf("client %d setup collision: %v", id, res.Status)
			}
		}
	}
}

func TestCoordinationDeterministicPerSeed(t *testing.T) {
	a := NewCoordination(5, 0.5, 16, 4)
	b := NewCoordination(5, 0.5, 16, 4)
	for i := 0; i < 50; i++ {
		oa, ob := next(t, a), next(t, b)
		if oa.ReadOnly != ob.ReadOnly || string(oa.Payload) != string(ob.Payload) {
			t.Fatal("same client ID produced different streams")
		}
	}
}
