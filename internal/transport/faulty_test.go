package transport

import (
	"testing"
	"time"

	"hybster/internal/message"
)

// scriptInjector replays a fixed per-seq fault script on every link.
type scriptInjector struct {
	script map[uint64]Fault
}

func (s *scriptInjector) Decide(from, to uint32, seq uint64) Fault {
	return s.script[seq]
}

// faultyPair wires 0→1 over memnet with the given fault script on the
// sending side.
func faultyPair(t *testing.T, script map[uint64]Fault) (*FaultyEndpoint, *collector, func()) {
	t.Helper()
	net := NewNetwork(LinkProfile{})
	a := WrapFaulty(net.Endpoint(0), &scriptInjector{script: script})
	b := net.Endpoint(1)
	col := newCollector()
	b.Handle(col.handler)
	return a, col, net.Close
}

func TestFaultyDrop(t *testing.T) {
	a, col, stop := faultyPair(t, map[uint64]Fault{1: {Drop: true}})
	defer stop()
	for i := uint64(0); i < 3; i++ {
		if err := a.Send(1, testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 2, time.Second)
	time.Sleep(30 * time.Millisecond)
	if col.count() != 2 {
		t.Fatalf("delivered %d, want 2", col.count())
	}
	seqs := []uint64{col.msgs[0].(*message.Request).Seq, col.msgs[1].(*message.Request).Seq}
	if seqs[0] != 0 || seqs[1] != 2 {
		t.Fatalf("delivered seqs %v, want [0 2]", seqs)
	}
	if s := a.Stats(); s.Sent != 3 || s.Dropped != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFaultyDuplicate(t *testing.T) {
	a, col, stop := faultyPair(t, map[uint64]Fault{0: {Duplicate: true}})
	defer stop()
	if err := a.Send(1, testMsg(7)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 2, time.Second)
	for i := 0; i < 2; i++ {
		if col.msgs[i].(*message.Request).Seq != 7 {
			t.Fatalf("copy %d has seq %d", i, col.msgs[i].(*message.Request).Seq)
		}
	}
	if s := a.Stats(); s.Duplicated != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFaultyDelay(t *testing.T) {
	a, col, stop := faultyPair(t, map[uint64]Fault{0: {Delay: 60 * time.Millisecond}})
	defer stop()
	start := time.Now()
	if err := a.Send(1, testMsg(1)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 60ms", elapsed)
	}
	if s := a.Stats(); s.Delayed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFaultyReorder(t *testing.T) {
	// Holding seq 0 lets seq 1 overtake it.
	a, col, stop := faultyPair(t, map[uint64]Fault{0: {Hold: true}})
	defer stop()
	_ = a.Send(1, testMsg(0))
	_ = a.Send(1, testMsg(1))
	col.waitFor(t, 2, time.Second)
	got := []uint64{col.msgs[0].(*message.Request).Seq, col.msgs[1].(*message.Request).Seq}
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("delivery order %v, want [1 0]", got)
	}
	if s := a.Stats(); s.Held != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFaultyHoldFlushesWithoutSuccessor(t *testing.T) {
	// A held message with no successor must still arrive (after the
	// flush delay), or a quiet link would lose its last message.
	a, col, stop := faultyPair(t, map[uint64]Fault{0: {Hold: true}})
	defer stop()
	_ = a.Send(1, testMsg(0))
	col.waitFor(t, 1, time.Second)
	if col.msgs[0].(*message.Request).Seq != 0 {
		t.Fatalf("seq %d", col.msgs[0].(*message.Request).Seq)
	}
}

func TestFaultyCorrupt(t *testing.T) {
	// Flip a byte in the middle of a large payload: the frame still
	// parses, so the corruption must reach the receiver.
	a, col, stop := faultyPair(t, map[uint64]Fault{0: {Corrupt: true, CorruptPos: 40, CorruptXOR: 0xFF}})
	defer stop()
	orig := &message.Request{Client: testMsg(0).Client, Seq: 1, Payload: make([]byte, 64)}
	_ = a.Send(1, orig)
	s := a.Stats()
	if s.Corrupted+s.CorruptDropped != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Corrupted == 1 {
		col.waitFor(t, 1, time.Second)
		got := col.msgs[0].(*message.Request)
		if string(message.Marshal(got)) == string(message.Marshal(orig)) {
			t.Fatal("corrupted message arrived identical to the original")
		}
	}
}

func TestFaultyCloseDiscardsHeld(t *testing.T) {
	a, col, stop := faultyPair(t, map[uint64]Fault{0: {Hold: true}})
	defer stop()
	_ = a.Send(1, testMsg(0))
	_ = a.Close()
	time.Sleep(2 * holdFlushDelay)
	if col.count() != 0 {
		t.Fatal("held message escaped after Close")
	}
	if err := a.Send(1, testMsg(1)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestFaultyQuiesce pins that Quiesce ends the fault window: held
// messages flush immediately and every later send passes untouched.
func TestFaultyQuiesce(t *testing.T) {
	a, col, stop := faultyPair(t, map[uint64]Fault{
		0: {Hold: true},
		1: {Drop: true},
		2: {Drop: true},
	})
	defer stop()
	if err := a.Send(1, testMsg(0)); err != nil { // held
		t.Fatal(err)
	}
	a.Quiesce()
	col.waitFor(t, 1, time.Second) // the held message was released
	for i := uint64(1); i < 3; i++ {
		if err := a.Send(1, testMsg(i)); err != nil { // script says drop; quiesced says deliver
			t.Fatal(err)
		}
	}
	col.waitFor(t, 3, time.Second)
	if s := a.Stats(); s.Dropped != 0 || s.Sent != 3 {
		t.Fatalf("stats %+v", s)
	}
}
