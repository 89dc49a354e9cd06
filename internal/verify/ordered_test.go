package verify

import (
	"sync"
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/message"
)

// testRequest builds a request whose authenticator verifies at replica
// 0 of a group keyed by master; forged flips a MAC byte so it must be
// rejected.
func testRequest(master crypto.Key, seq uint64, forged bool) *message.Request {
	client := crypto.NewKeyStore(7, master)
	r := &message.Request{Client: 7, Seq: seq, Payload: []byte{byte(seq)}}
	r.Auth = crypto.NewAuthenticator(client, r.Digest(), 3)
	if forged {
		r.Auth.MACs[0][0] ^= 0xff
	}
	return r
}

// TestOrderedDeliversInSubmissionOrder floods the reorder buffer with
// interleaved Submit and Pass tickets on several sender lanes and
// checks that each lane's callbacks fire in its submission order with
// the correct verdicts, however the pool's workers race.
func TestOrderedDeliversInSubmissionOrder(t *testing.T) {
	master := crypto.Key("ordered-test-master-key")
	replica := crypto.NewKeyStore(0, master)
	pool := NewPool(replica, nil)
	defer pool.Close()
	ord := NewOrdered(pool)

	const senders, perSender = 4, 200
	var mu sync.Mutex
	got := make(map[uint32][]int) // sender -> delivered ticket indexes
	verdicts := make(map[uint32][]bool)
	var wg sync.WaitGroup
	wg.Add(senders)
	var done sync.WaitGroup
	done.Add(senders * perSender)
	for s := uint32(0); s < senders; s++ {
		go func(s uint32) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				i := i
				switch i % 3 {
				case 0: // valid batch
					ord.Submit(s, []*message.Request{testRequest(master, uint64(i), false)}, func(ok bool) {
						mu.Lock()
						got[s] = append(got[s], i)
						verdicts[s] = append(verdicts[s], ok)
						mu.Unlock()
						done.Done()
					})
				case 1: // forged batch
					ord.Submit(s, []*message.Request{testRequest(master, uint64(i), true)}, func(ok bool) {
						mu.Lock()
						got[s] = append(got[s], i)
						verdicts[s] = append(verdicts[s], ok)
						mu.Unlock()
						done.Done()
					})
				default: // passthrough
					ord.Pass(s, func() {
						mu.Lock()
						got[s] = append(got[s], i)
						verdicts[s] = append(verdicts[s], true)
						mu.Unlock()
						done.Done()
					})
				}
			}
		}(s)
	}
	wg.Wait()
	done.Wait()

	for s := uint32(0); s < senders; s++ {
		if len(got[s]) != perSender {
			t.Fatalf("sender %d: %d callbacks, want %d", s, len(got[s]), perSender)
		}
		for i, idx := range got[s] {
			if idx != i {
				t.Fatalf("sender %d: callback %d delivered ticket %d — stage reordered the stream", s, i, idx)
			}
			wantOK := i%3 != 1
			if verdicts[s][i] != wantOK {
				t.Fatalf("sender %d ticket %d: verdict %v, want %v", s, i, verdicts[s][i], wantOK)
			}
		}
	}
}

// TestOrderedReentrantPass pins that a callback may re-enter the same
// lane (an in-process transport can loop a send synchronously back
// into the inbound handler) without deadlocking, and that the
// re-entered ticket still delivers after every earlier ticket.
func TestOrderedReentrantPass(t *testing.T) {
	master := crypto.Key("ordered-test-master-key")
	replica := crypto.NewKeyStore(0, master)
	pool := NewPool(replica, nil)
	defer pool.Close()
	ord := NewOrdered(pool)

	var order []string
	var mu sync.Mutex
	fin := make(chan struct{})
	ord.Submit(1, []*message.Request{testRequest(master, 1, false)}, func(ok bool) {
		mu.Lock()
		order = append(order, "outer")
		mu.Unlock()
		ord.Pass(1, func() {
			mu.Lock()
			order = append(order, "inner")
			mu.Unlock()
			close(fin)
		})
	})
	<-fin
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("delivery order %v, want [outer inner]", order)
	}
}

// TestOrderedLaneCapOverflow pins the lane-map bound: senders beyond
// maxLanes share the overflow lane and still deliver every callback.
func TestOrderedLaneCapOverflow(t *testing.T) {
	master := crypto.Key("ordered-test-master-key")
	replica := crypto.NewKeyStore(0, master)
	pool := NewPool(replica, nil)
	defer pool.Close()
	ord := NewOrdered(pool)

	for s := uint32(0); s < maxLanes; s++ {
		ord.laneFor(s)
	}
	if got := ord.laneFor(maxLanes + 1); got != &ord.overflow {
		t.Fatal("sender beyond the lane cap did not land on the overflow lane")
	}
	var delivered []int
	var mu sync.Mutex
	var done sync.WaitGroup
	done.Add(3)
	for i := 0; i < 3; i++ {
		i := i
		ord.Pass(maxLanes+uint32(i), func() {
			mu.Lock()
			delivered = append(delivered, i)
			mu.Unlock()
			done.Done()
		})
	}
	done.Wait()
	if len(delivered) != 3 || delivered[0] != 0 || delivered[1] != 1 || delivered[2] != 2 {
		t.Fatalf("overflow lane delivered %v, want [0 1 2]", delivered)
	}
}
