package cop

import (
	"sync"
	"testing"
	"time"
)

func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox[int]()
	for i := 0; i < 100; i++ {
		m.Put(i)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := m.Get()
		if !ok || v != i {
			t.Fatalf("Get = %d,%v want %d", v, ok, i)
		}
	}
}

func TestMailboxBlockingGet(t *testing.T) {
	m := NewMailbox[string]()
	done := make(chan string)
	go func() {
		v, _ := m.Get()
		done <- v
	}()
	m.Put("hello")
	if got := <-done; got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestMailboxCloseUnblocks(t *testing.T) {
	m := NewMailbox[int]()
	done := make(chan bool)
	go func() {
		_, ok := m.Get()
		done <- ok
	}()
	m.Close()
	if ok := <-done; ok {
		t.Fatal("Get returned ok after close on empty mailbox")
	}
}

func TestMailboxDrainAfterClose(t *testing.T) {
	m := NewMailbox[int]()
	m.Put(1)
	m.Put(2)
	m.Close()
	m.Put(3) // discarded
	if v, ok := m.Get(); !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if v, ok := m.Get(); !ok || v != 2 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if _, ok := m.Get(); ok {
		t.Fatal("discarded value delivered")
	}
}

func TestMailboxTryGet(t *testing.T) {
	m := NewMailbox[int]()
	if _, ok := m.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox succeeded")
	}
	m.Put(7)
	if v, ok := m.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
}

func TestMailboxRingWrapAndShrink(t *testing.T) {
	m := NewMailbox[int]()
	// Interleave puts and gets so head walks around the ring repeatedly
	// and crosses several grow/shrink boundaries.
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		burst := (round % 37) + 1
		for i := 0; i < burst; i++ {
			m.Put(next)
			next++
		}
		drain := burst
		if round%3 == 0 {
			drain = burst / 2 // leave a residue queued across rounds
		}
		for i := 0; i < drain; i++ {
			v, ok := m.Get()
			if !ok || v != want {
				t.Fatalf("round %d: Get = %d,%v want %d", round, v, ok, want)
			}
			want++
		}
	}
	for want < next {
		v, ok := m.Get()
		if !ok || v != want {
			t.Fatalf("drain: Get = %d,%v want %d", v, ok, want)
		}
		want++
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after full drain", m.Len())
	}
	if len(m.buf) != minMailboxCap {
		t.Fatalf("ring did not shrink: cap %d want %d", len(m.buf), minMailboxCap)
	}
}

func TestMailboxGetBatch(t *testing.T) {
	m := NewMailbox[int]()
	for i := 0; i < 10; i++ {
		m.Put(i)
	}
	batch, ok := m.GetBatch(make([]int, 0, 4))
	if !ok || len(batch) != 4 {
		t.Fatalf("GetBatch = %v,%v", batch, ok)
	}
	for i, v := range batch {
		if v != i {
			t.Fatalf("batch[%d] = %d", i, v)
		}
	}
	// Remaining six fit in one oversized batch.
	batch, ok = m.GetBatch(make([]int, 0, 16))
	if !ok || len(batch) != 6 || batch[0] != 4 || batch[5] != 9 {
		t.Fatalf("GetBatch = %v,%v", batch, ok)
	}
	// A full dst returns immediately without blocking.
	full := []int{99}
	if out, ok := m.GetBatch(full); !ok || len(out) != 1 {
		t.Fatalf("GetBatch(full) = %v,%v", out, ok)
	}
	// Blocks until a value arrives.
	done := make(chan []int)
	go func() {
		out, _ := m.GetBatch(make([]int, 0, 8))
		done <- out
	}()
	m.Put(42)
	if out := <-done; len(out) != 1 || out[0] != 42 {
		t.Fatalf("blocking GetBatch = %v", out)
	}
	// Closed and drained: ok=false.
	m.Close()
	if _, ok := m.GetBatch(make([]int, 0, 8)); ok {
		t.Fatal("GetBatch on closed empty mailbox returned ok")
	}
}

func TestMailboxConcurrentProducers(t *testing.T) {
	m := NewMailbox[int]()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Put(base + i)
			}
		}(w * per)
	}
	seen := make(map[int]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < workers*per; i++ {
			v, ok := m.Get()
			if !ok {
				t.Error("closed early")
				return
			}
			if seen[v] {
				t.Errorf("duplicate %d", v)
				return
			}
			seen[v] = true
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != workers*per {
		t.Fatalf("received %d of %d", len(seen), workers*per)
	}
}

// TestMailboxPutBounded pins the bounded put: a producer at the bound
// blocks until a consumer makes room, values stay FIFO across the
// blocking, and Close releases a blocked producer with ok=false
// without enqueueing its value.
func TestMailboxPutBounded(t *testing.T) {
	const limit = 4
	m := NewMailbox[int]()
	for i := 0; i < limit; i++ {
		if !m.PutBounded(i, limit) {
			t.Fatalf("PutBounded(%d) below the bound failed", i)
		}
	}
	put := make(chan bool)
	go func() { put <- m.PutBounded(limit, limit) }()
	waitBlockedPut(t, m)
	if m.Len() != limit {
		t.Fatalf("Len = %d with a producer blocked at bound %d", m.Len(), limit)
	}
	if v, ok := m.Get(); !ok || v != 0 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if !<-put {
		t.Fatal("PutBounded failed after room was made")
	}
	for want := 1; want <= limit; want++ {
		if v, ok := m.Get(); !ok || v != want {
			t.Fatalf("Get = %d,%v want %d", v, ok, want)
		}
	}

	// An unbounded Put ignores the bound; a bounded one then waits.
	for i := 0; i < limit+2; i++ {
		m.Put(i)
	}
	go func() { put <- m.PutBounded(99, limit) }()
	waitBlockedPut(t, m)
	m.Close()
	if <-put {
		t.Fatal("PutBounded reported success on a mailbox closed while it waited")
	}
	if m.PutBounded(100, limit+100) {
		t.Fatal("PutBounded on a closed mailbox reported success")
	}
	if batch, _ := m.GetBatch(make([]int, 0, 16)); len(batch) != limit+2 {
		t.Fatalf("drained %v after close, want the %d values put before it", batch, limit+2)
	}
}

// waitBlockedPut returns once a producer is parked in PutBounded.
func waitBlockedPut[T any](t *testing.T, m *Mailbox[T]) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		m.mu.Lock()
		full := m.nfull
		m.mu.Unlock()
		if full > 0 {
			return
		}
	}
	t.Fatal("producer never blocked at the bound")
}

// TestMailboxPutBoundedConcurrent runs many bounded producers against a
// batch-draining consumer: nothing is lost or duplicated, each
// producer's values arrive in its order, and the queue never exceeds
// the bound.
func TestMailboxPutBoundedConcurrent(t *testing.T) {
	const workers, per, limit = 8, 2000, 8
	m := NewMailbox[[2]int]()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !m.PutBounded([2]int{w, i}, limit) {
					t.Errorf("producer %d: PutBounded failed at %d", w, i)
					return
				}
			}
		}(w)
	}
	next := make([]int, workers)
	buf := make([][2]int, 0, 2*limit)
	for got := 0; got < workers*per; {
		if n := m.Len(); n > limit {
			t.Fatalf("queue holds %d values, bound is %d", n, limit)
		}
		var ok bool
		buf, ok = m.GetBatch(buf[:0])
		if !ok {
			t.Fatal("closed early")
		}
		for _, v := range buf {
			if v[1] != next[v[0]] {
				t.Fatalf("producer %d: got %d want %d", v[0], v[1], next[v[0]])
			}
			next[v[0]]++
		}
		got += len(buf)
	}
	wg.Wait()
}
