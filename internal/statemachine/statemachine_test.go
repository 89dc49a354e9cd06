package statemachine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/timeline"
)

// testApp is a deterministic append-log application: Execute appends
// the payload and returns the new length.
type testApp struct {
	log []byte
}

func (a *testApp) Execute(client uint32, payload []byte, readOnly bool) []byte {
	if readOnly {
		return []byte(fmt.Sprintf("len=%d", len(a.log)))
	}
	a.log = append(a.log, payload...)
	return []byte(fmt.Sprintf("len=%d", len(a.log)))
}

func (a *testApp) Snapshot() []byte { return append([]byte(nil), a.log...) }

func (a *testApp) Restore(s []byte) error {
	a.log = append([]byte(nil), s...)
	return nil
}

func req(client uint32, seq uint64, payload string) *message.Request {
	return &message.Request{Client: crypto.ClientIDBase + client, Seq: seq, Payload: []byte(payload)}
}

func TestInOrderDelivery(t *testing.T) {
	e := NewExecutor(&testApp{})
	out := e.Submit(1, []*message.Request{req(0, 1, "a")})
	if len(out) != 1 || out[0].Order != 1 {
		t.Fatalf("out = %+v", out)
	}
	if string(out[0].Replies[0].Result) != "len=1" {
		t.Fatalf("result = %q", out[0].Replies[0].Result)
	}
	if e.NextOrder() != 2 || e.LastExecuted() != 1 {
		t.Fatal("cursor wrong")
	}
}

func TestOutOfOrderBufferedThenFlushed(t *testing.T) {
	e := NewExecutor(&testApp{})
	if out := e.Submit(3, []*message.Request{req(0, 3, "c")}); out != nil {
		t.Fatalf("order 3 delivered early: %+v", out)
	}
	if out := e.Submit(2, []*message.Request{req(0, 2, "b")}); out != nil {
		t.Fatalf("order 2 delivered early: %+v", out)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	out := e.Submit(1, []*message.Request{req(0, 1, "a")})
	if len(out) != 3 {
		t.Fatalf("flush delivered %d instances", len(out))
	}
	for i, ex := range out {
		if ex.Order != timeline.Order(i+1) {
			t.Fatalf("delivery order wrong: %+v", out)
		}
	}
	if e.Pending() != 0 {
		t.Fatal("pending not drained")
	}
}

func TestNoOpInstancesCloseGaps(t *testing.T) {
	e := NewExecutor(&testApp{})
	e.Submit(2, []*message.Request{req(0, 1, "x")})
	out := e.Submit(1, nil) // no-op
	if len(out) != 2 {
		t.Fatalf("delivered %d", len(out))
	}
	if len(out[0].Replies) != 0 {
		t.Fatal("no-op produced replies")
	}
}

func TestDuplicateOrderIgnored(t *testing.T) {
	e := NewExecutor(&testApp{})
	e.Submit(1, []*message.Request{req(0, 1, "a")})
	if out := e.Submit(1, []*message.Request{req(0, 9, "zzz")}); out != nil {
		t.Fatalf("re-execution of order 1: %+v", out)
	}
	// Duplicate pending submission also ignored.
	e.Submit(3, []*message.Request{req(0, 2, "c")})
	e.Submit(3, []*message.Request{req(0, 9, "z")})
	out := e.Submit(2, nil)
	if len(out) != 2 {
		t.Fatalf("delivered %d", len(out))
	}
	if string(out[1].Replies[0].Result) != "len=2" {
		t.Fatalf("second submission replaced first: %q", out[1].Replies[0].Result)
	}
}

func TestReplyCacheDeduplicatesClientRequests(t *testing.T) {
	e := NewExecutor(&testApp{})
	out := e.Submit(1, []*message.Request{req(0, 1, "a")})
	first := out[0].Replies[0]

	// The same request ordered again (e.g. retransmitted and ordered
	// by a second instance) must not re-execute.
	out = e.Submit(2, []*message.Request{req(0, 1, "a")})
	dup := out[0].Replies[0]
	if !dup.Cached {
		t.Fatal("duplicate not served from cache")
	}
	if !bytes.Equal(dup.Result, first.Result) {
		t.Fatalf("cached reply differs: %q vs %q", dup.Result, first.Result)
	}

	// An older request is dropped silently (no reply at all).
	out = e.Submit(3, []*message.Request{req(0, 1, "a"), req(0, 2, "b")})
	if len(out[0].Replies) != 2 {
		t.Fatalf("replies = %+v", out[0].Replies)
	}
	out = e.Submit(4, []*message.Request{req(0, 1, "old")})
	if len(out[0].Replies) != 0 {
		t.Fatalf("stale request produced a reply: %+v", out[0].Replies)
	}
}

func TestStateDigestDeterministicAcrossReplicas(t *testing.T) {
	mk := func() *Executor { return NewExecutor(&testApp{}) }
	a, b := mk(), mk()
	batches := [][]*message.Request{
		{req(0, 1, "x"), req(1, 1, "y")},
		{req(0, 2, "z")},
		nil,
		{req(2, 1, "w")},
	}
	for i, batch := range batches {
		a.Submit(timeline.Order(i+1), batch)
		b.Submit(timeline.Order(i+1), batch)
	}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("same history, different state digests")
	}
	// Different history → different digest.
	c := mk()
	c.Submit(1, []*message.Request{req(0, 1, "other")})
	if a.StateDigest() == c.StateDigest() {
		t.Fatal("different histories share a digest")
	}
}

func TestReplyVectorAffectsDigest(t *testing.T) {
	a := NewExecutor(&testApp{})
	b := NewExecutor(&testApp{})
	// Same app state (read-only ops don't change it) but different
	// reply cache contents.
	a.Submit(1, []*message.Request{{Client: 1, Seq: 1, Payload: []byte("r"), ReadOnly: true}})
	b.Submit(1, []*message.Request{{Client: 2, Seq: 1, Payload: []byte("r"), ReadOnly: true}})
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("reply vector not covered by state digest")
	}
}

func TestInstallStateAndDrain(t *testing.T) {
	// Replica A executes 1..5; replica B starts empty, receives A's
	// snapshot at 5, then continues with buffered 6.
	a := NewExecutor(&testApp{})
	for o := timeline.Order(1); o <= 5; o++ {
		a.Submit(o, []*message.Request{req(0, uint64(o), "x")})
	}
	b := NewExecutor(&testApp{})
	b.Submit(6, []*message.Request{req(0, 6, "x")}) // buffered future instance

	if err := b.InstallState(5, a.Snapshot(), a.ReplyVector()); err != nil {
		t.Fatal(err)
	}
	if b.StateDigest() != a.StateDigest() {
		t.Fatal("digests differ after state transfer")
	}
	if ex := b.Step(); ex == nil || ex.Order != 6 || b.Step() != nil {
		t.Fatalf("after the install, Step delivered %+v, want order 6 alone", ex)
	}

	a.Submit(6, []*message.Request{req(0, 6, "x")})
	if b.StateDigest() != a.StateDigest() {
		t.Fatal("replicas diverged after catch-up")
	}
}

func TestInstallStateRefusesBackwards(t *testing.T) {
	e := NewExecutor(&testApp{})
	for o := timeline.Order(1); o <= 10; o++ {
		e.Submit(o, nil)
	}
	if err := e.InstallState(5, nil, nil); err == nil {
		t.Fatal("moved backwards")
	}
}

func TestInstallStateDropsStalePending(t *testing.T) {
	e := NewExecutor(&testApp{})
	e.Submit(3, []*message.Request{req(0, 1, "x")})
	src := NewExecutor(&testApp{})
	for o := timeline.Order(1); o <= 4; o++ {
		src.Submit(o, nil)
	}
	if err := e.InstallState(4, src.Snapshot(), src.ReplyVector()); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatal("stale pending instance survived install")
	}
	if e.NextOrder() != 5 {
		t.Fatalf("next = %d", e.NextOrder())
	}
}

func TestReplyVectorRoundtripCorrupt(t *testing.T) {
	e := NewExecutor(&testApp{})
	e.Submit(1, []*message.Request{req(0, 1, "a")})
	rv := e.ReplyVector()

	fresh := NewExecutor(&testApp{})
	if err := fresh.InstallState(1, e.Snapshot(), rv); err != nil {
		t.Fatal(err)
	}
	if err := NewExecutor(&testApp{}).InstallState(1, nil, rv[:len(rv)-1]); err == nil {
		t.Fatal("corrupt reply vector accepted")
	}
}

func TestRandomInterleavingsConverge(t *testing.T) {
	// Property: any submission order of the same instances yields the
	// same final state.
	const instances = 40
	batches := make([][]*message.Request, instances)
	for i := range batches {
		batches[i] = []*message.Request{req(uint32(i%3), uint64(i/3+1), fmt.Sprintf("p%d", i))}
	}
	ref := NewExecutor(&testApp{})
	for i, b := range batches {
		ref.Submit(timeline.Order(i+1), b)
	}
	want := ref.StateDigest()

	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		perm := rng.Perm(instances)
		e := NewExecutor(&testApp{})
		total := 0
		for _, idx := range perm {
			total += len(e.Submit(timeline.Order(idx+1), batches[idx]))
		}
		if total != instances {
			t.Fatalf("trial %d: delivered %d of %d", trial, total, instances)
		}
		if e.StateDigest() != want {
			t.Fatalf("trial %d: diverged", trial)
		}
	}
}

func TestNilApplicationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExecutor(nil)
}

func TestLargeSeqNumbers(t *testing.T) {
	e := NewExecutor(&testApp{})
	var big uint64 = 1<<63 + 5
	out := e.Submit(1, []*message.Request{req(0, big, "a")})
	if len(out[0].Replies) != 1 {
		t.Fatal("large seq rejected")
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], big)
	_ = buf
	out = e.Submit(2, []*message.Request{req(0, big-1, "b")})
	if len(out[0].Replies) != 0 {
		t.Fatal("older seq executed after larger seq")
	}
}
