package message

import (
	"bytes"
	"sync"
	"testing"
)

// TestMarshalIsExactAndCounted pins the three arms of the walk against
// each other over the full corpus: what the count arm predicts is what
// the put arm wrote, and the returned buffer is one allocation of
// exactly that size behind the requested headroom.
func TestMarshalIsExactAndCounted(t *testing.T) {
	for _, m := range goldenCorpus() {
		for _, headroom := range []int{0, 8} {
			buf := MarshalHeadroom(m, headroom)
			if want := headroom + 1 + WireSize(m); len(buf) != want || cap(buf) != want {
				t.Errorf("%T headroom %d: len %d cap %d, WireSize predicts %d",
					m, headroom, len(buf), cap(buf), want)
			}
			if !bytes.Equal(buf[:headroom], make([]byte, headroom)) || !bytes.Equal(buf[headroom:], Marshal(m)) {
				t.Errorf("%T headroom %d: not zero headroom followed by Marshal(m)", m, headroom)
			}
		}
	}
}

func TestMarshalStatsCount(t *testing.T) {
	t0, _ := MarshalStats()
	for i := 0; i < 8; i++ {
		Marshal(sampleRequest(i))
	}
	t1, h1 := MarshalStats()
	if t1-t0 < 8 {
		t.Fatalf("marshal total advanced by %d, want >= 8", t1-t0)
	}
	if h1 > t1 {
		t.Fatalf("pool hits %d exceed total %d", h1, t1)
	}
}

// TestHotPathAllocs pins the allocation behavior the hot-path overhaul
// bought: a memoized digest costs zero allocations on a warm cache, and
// a marshal with a warm encoder pool costs exactly one (the returned
// buffer).
func TestHotPathAllocs(t *testing.T) {
	p := samplePrepare(7)
	_ = p.BatchDigest()
	_ = p.Digest() // warm the caches
	if n := testing.AllocsPerRun(100, func() { _ = p.Digest() }); n != 0 {
		t.Errorf("cached Prepare.Digest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.BatchDigest() }); n != 0 {
		t.Errorf("cached Prepare.BatchDigest allocates %.1f/op, want 0", n)
	}
	r := sampleRequest(7)
	_ = r.Digest()
	if n := testing.AllocsPerRun(100, func() { _ = r.Digest() }); n != 0 {
		t.Errorf("cached Request.Digest allocates %.1f/op, want 0", n)
	}

	// A cold payload digest hashes the payload where it lies: no
	// staging copy, whatever the payload size (fresh struct per run, so
	// the memo never answers).
	kib := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { _ = (&Request{Client: 1, Seq: 2, Payload: kib}).Digest() }); n != 0 {
		t.Errorf("cold Request.Digest of 1 KiB allocates %.1f/op, want 0", n)
	}

	c := &Commit{View: 1, Order: 2, Replica: 3, Cert: sampleCert(1)}
	Marshal(c) // warm the encoder pool
	if n := testing.AllocsPerRun(100, func() { _ = Marshal(c) }); n > 1 {
		t.Errorf("Marshal(Commit) allocates %.1f/op, want <= 1", n)
	}
	Marshal(p)
	if n := testing.AllocsPerRun(100, func() { _ = Marshal(p) }); n > 1 {
		t.Errorf("Marshal(Prepare) allocates %.1f/op, want <= 1", n)
	}

	// Decoding a 16-request PREPARE: the message, one backing array and
	// one pointer slice for the batch, and a payload and a MAC slice per
	// request (35), with two to spare for the pool running cold.
	raw := Marshal(benchPrepare(16))
	if n := testing.AllocsPerRun(100, func() { _, _ = Unmarshal(raw) }); n > 37 {
		t.Errorf("Unmarshal(Prepare×16) allocates %.1f/op, want <= 37", n)
	}
}

// TestDigestConcurrent exercises the first-writer-wins cache fill from
// many goroutines; run under -race this pins the atomic publication
// protocol in digestCache.
func TestDigestConcurrent(t *testing.T) {
	p := samplePrepare(11)
	want := samplePrepare(11).Digest()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if p.Digest() != want {
					t.Error("concurrent digest mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPrecomputeDigestWarmsCache verifies the sender-side precompute
// leaves a warm cache behind for every digest-bearing type.
func TestPrecomputeDigestWarmsCache(t *testing.T) {
	for _, m := range allMessages() {
		PrecomputeDigest(m)
		switch m.(type) {
		case *Reply, *StateRequest, *StateReply:
			continue // no digest
		}
		if n := testing.AllocsPerRun(10, func() { PrecomputeDigest(m) }); n != 0 {
			t.Errorf("%T: PrecomputeDigest after warmup allocates %.1f/op, want 0", m, n)
		}
	}
}

// TestMarshalAfterFailedUnmarshal pins that a walker returning to the
// pool from a failed decode carries nothing into the next pass: the put
// and count arms must never see (or act on) a stale decode error, least
// of all by touching the message they walk.
func TestMarshalAfterFailedUnmarshal(t *testing.T) {
	p := samplePrepare(3)
	want := Marshal(p)
	for i := 0; i < 8; i++ {
		if _, err := Unmarshal(want[:len(want)/2]); err == nil {
			t.Fatal("truncated PREPARE accepted")
		}
		if got := Marshal(p); !bytes.Equal(got, want) || len(p.Requests) != 2 || WireSize(p) != len(want)-1 {
			t.Fatalf("pass %d after a failed decode: marshal or message changed", i)
		}
	}
}
