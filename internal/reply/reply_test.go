package reply

import (
	"sync"
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/message"
)

// sink is a thread-safe Sender that records every reply per client.
type sink struct {
	mu  sync.Mutex
	got map[uint32][]*message.Reply
}

func newSink() *sink { return &sink{got: make(map[uint32][]*message.Reply)} }

func (s *sink) Send(to uint32, m message.Message) error {
	rep := m.(*message.Reply)
	s.mu.Lock()
	s.got[rep.Client] = append(s.got[rep.Client], rep)
	s.mu.Unlock()
	return nil
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rs := range s.got {
		n += len(rs)
	}
	return n
}

// TestPerClientOrderPreserved checks the ordering contract the reply
// cache depends on: a single client's replies are sent in submission
// order even though the stage fans work across several workers. Run
// under -race this also exercises the shard mailboxes for data races.
func TestPerClientOrderPreserved(t *testing.T) {
	const clients, perClient = 32, 200
	sk := newSink()
	st := NewStage(0, crypto.NewKeyStore(0, crypto.NewKeyFromSeed("t")), sk, 4, nil)

	// One submitter per client mirrors production: the exec loop is a
	// single goroutine, so any one client's Submits are ordered; using
	// several goroutines for distinct clients additionally stresses the
	// shard mailboxes under concurrent producers.
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client uint32) {
			defer wg.Done()
			for seq := uint64(1); seq <= perClient; seq++ {
				st.Submit(client, seq, []byte{byte(seq)})
			}
		}(crypto.ClientIDBase + uint32(c))
	}
	wg.Wait()
	st.Close()

	if got := sk.count(); got != clients*perClient {
		t.Fatalf("delivered %d replies, want %d", got, clients*perClient)
	}
	for client, reps := range sk.got {
		for i, rep := range reps {
			if rep.Seq != uint64(i+1) {
				t.Fatalf("client %d reply %d has seq %d — order regressed", client, i, rep.Seq)
			}
		}
	}
}

// TestDistinctClientsShardedAndAuthenticated checks that every reply
// carries a MAC the client can verify (pairwise key is symmetric) and
// that clients mapping to different shards all complete.
func TestDistinctClientsShardedAndAuthenticated(t *testing.T) {
	master := crypto.NewKeyFromSeed("t")
	const replica = 2
	sk := newSink()
	st := NewStage(replica, crypto.NewKeyStore(replica, master), sk, 3, nil)

	const clients = 7 // not a multiple of the worker count: shards uneven
	for c := 0; c < clients; c++ {
		st.Submit(crypto.ClientIDBase+uint32(c), 1, []byte("r"))
	}
	st.Close()

	if len(sk.got) != clients {
		t.Fatalf("replies reached %d clients, want %d", len(sk.got), clients)
	}
	for client, reps := range sk.got {
		// Verify as the client would: its own store's pairwise key.
		ks := crypto.NewKeyStore(client, master)
		rep := reps[0]
		if !rep.MACUnder(ks.KeyFor(replica)).Equal(rep.MAC) {
			t.Fatalf("client %d reply MAC does not verify", client)
		}
		if rep.Replica != replica {
			t.Fatalf("client %d reply names replica %d", client, rep.Replica)
		}
	}
}

// TestCloseDrainsQueuedReplies checks Close's contract: every reply
// submitted before Close is sent, none are dropped mid-queue.
func TestCloseDrainsQueuedReplies(t *testing.T) {
	const n = 5000
	sk := newSink()
	st := NewStage(0, crypto.NewKeyStore(0, crypto.NewKeyFromSeed("t")), sk, 2, nil)
	for i := 0; i < n; i++ {
		st.Submit(crypto.ClientIDBase+uint32(i%16), uint64(i/16+1), []byte("x"))
	}
	st.Close() // must block until all n are sent
	if got := sk.count(); got != n {
		t.Fatalf("drained %d of %d queued replies", got, n)
	}
}

// TestSubmitAfterCloseIsDiscarded checks that a straggling Submit after
// shutdown (e.g. a stale exec event) neither panics nor deadlocks.
func TestSubmitAfterCloseIsDiscarded(t *testing.T) {
	sk := newSink()
	st := NewStage(0, crypto.NewKeyStore(0, crypto.NewKeyFromSeed("t")), sk, 2, nil)
	st.Close()
	st.Submit(crypto.ClientIDBase, 1, []byte("late"))
	if got := sk.count(); got != 0 {
		t.Fatalf("reply sent after Close: %d", got)
	}
}

// blockingSink blocks the first Send until released, so a test can
// hold a worker mid-batch deterministically.
type blockingSink struct {
	sink
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (s *blockingSink) Send(to uint32, m message.Message) error {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.sink.Send(to, m)
}

// TestSubmitInlineNeverOvertakes pins the inline fast path's safety
// argument: when an earlier reply for the client is still in a
// worker's hands, SubmitInline must queue behind it, not send.
func TestSubmitInlineNeverOvertakes(t *testing.T) {
	bs := &blockingSink{
		sink:    sink{got: make(map[uint32][]*message.Reply)},
		release: make(chan struct{}),
		entered: make(chan struct{}),
	}
	st := NewStage(0, crypto.NewKeyStore(0, crypto.NewKeyFromSeed("t")), bs, 1, nil)
	const client = crypto.ClientIDBase

	st.Submit(client, 1, []byte("first"))
	<-bs.entered // worker is mid-send of seq 1; shard queue is empty but busy

	// Inline submit while seq 1 is in flight: must fall back to the
	// queue — an inline send here would put seq 2 on the wire first.
	st.SubmitInline(client, 2, []byte("second"))
	close(bs.release)
	st.Close()

	reps := bs.got[client]
	if len(reps) != 2 || reps[0].Seq != 1 || reps[1].Seq != 2 {
		got := make([]uint64, len(reps))
		for i, r := range reps {
			got[i] = r.Seq
		}
		t.Fatalf("reply order %v, want [1 2]", got)
	}
}

// TestSubmitInlineQuietShard pins the fast path itself: on a quiet
// shard the reply is sent synchronously, before SubmitInline returns.
func TestSubmitInlineQuietShard(t *testing.T) {
	sk := newSink()
	st := NewStage(0, crypto.NewKeyStore(0, crypto.NewKeyFromSeed("t")), sk, 2, nil)
	defer st.Close()
	st.SubmitInline(crypto.ClientIDBase, 1, []byte("r"))
	if got := sk.count(); got != 1 {
		t.Fatalf("inline submit on quiet shard sent %d replies synchronously, want 1", got)
	}
}
