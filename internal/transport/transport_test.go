package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
)

func testMsg(seq uint64) *message.Request {
	return &message.Request{Client: crypto.ClientIDBase, Seq: seq, Payload: []byte("p")}
}

// collector accumulates received messages.
type collector struct {
	mu   sync.Mutex
	msgs []message.Message
	from []uint32
	ch   chan struct{}
}

func newCollector() *collector { return &collector{ch: make(chan struct{}, 1024)} }

func (c *collector) handler(from uint32, m message.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.from = append(c.from, from)
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n {
			return
		}
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timeout waiting for %d messages, have %d", n, got)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func TestMemnetDelivers(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.Handle(col.handler)

	if err := a.Send(1, testMsg(1)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, time.Second)
	if col.from[0] != 0 {
		t.Fatalf("from = %d", col.from[0])
	}
	if got := col.msgs[0].(*message.Request); got.Seq != 1 {
		t.Fatalf("seq = %d", got.Seq)
	}
}

func TestMemnetFIFOPerLink(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.Handle(col.handler)

	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := a.Send(1, testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, n, 5*time.Second)
	for i, m := range col.msgs {
		if m.(*message.Request).Seq != uint64(i) {
			t.Fatalf("message %d has seq %d — FIFO violated", i, m.(*message.Request).Seq)
		}
	}
}

func TestMemnetUnknownNode(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	if err := a.Send(9, testMsg(1)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestMemnetClosedEndpoint(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	net.Endpoint(1)
	_ = a.Close()
	if err := a.Send(1, testMsg(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemnetPartitionAndHeal(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.Handle(col.handler)

	net.Partition(0, 1)
	if err := a.Send(1, testMsg(1)); err != nil {
		t.Fatal(err) // partition drops silently
	}
	time.Sleep(50 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("message crossed a partition")
	}

	net.Heal(0, 1)
	if err := a.Send(1, testMsg(2)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, time.Second)
}

func TestMemnetIsolate(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	c := net.Endpoint(2)
	colB, colC := newCollector(), newCollector()
	b.Handle(colB.handler)
	c.Handle(colC.handler)

	net.Isolate(0)
	_ = a.Send(1, testMsg(1))
	_ = a.Send(2, testMsg(2))
	// b→c unaffected
	if err := b.Send(2, testMsg(3)); err != nil {
		t.Fatal(err)
	}
	colC.waitFor(t, 1, time.Second)
	time.Sleep(30 * time.Millisecond)
	if colB.count() != 0 {
		t.Fatal("isolated node reached a peer")
	}
	net.HealAll()
	_ = a.Send(1, testMsg(4))
	colB.waitFor(t, 1, time.Second)
}

func TestMemnetBandwidthSerializes(t *testing.T) {
	// 10 KB/s link, two 1 KiB-ish payloads → second arrives ≥ ~0.2s in.
	net := NewNetwork(LinkProfile{Bandwidth: 10_000})
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.Handle(col.handler)

	big := &message.Request{Client: crypto.ClientIDBase, Seq: 1, Payload: make([]byte, 1000)}
	start := time.Now()
	_ = a.Send(1, big)
	_ = a.Send(1, big)
	col.waitFor(t, 2, 3*time.Second)
	if elapsed := time.Since(start); elapsed < 180*time.Millisecond {
		t.Fatalf("two 1KB messages over 10KB/s arrived in %v", elapsed)
	}
}

func TestMemnetEndpointReplacement(t *testing.T) {
	// Re-registering an ID models a crash-restart.
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	a := net.Endpoint(0)
	old := net.Endpoint(1)
	oldCol := newCollector()
	old.Handle(oldCol.handler)

	fresh := net.Endpoint(1)
	freshCol := newCollector()
	fresh.Handle(freshCol.handler)

	_ = a.Send(1, testMsg(1))
	freshCol.waitFor(t, 1, time.Second)
	if oldCol.count() != 0 {
		t.Fatal("replaced endpoint still receives")
	}
	// The replaced endpoint is closed, so a stale handle held by the
	// crashed replica cannot keep sending under the restarted identity.
	if err := old.Send(0, testMsg(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("stale endpoint send: err = %v, want ErrClosed", err)
	}
}

func TestMulticast(t *testing.T) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	eps := make([]Endpoint, 4)
	cols := make([]*collector, 4)
	for i := range eps {
		eps[i] = net.Endpoint(uint32(i))
		cols[i] = newCollector()
		eps[i].Handle(cols[i].handler)
	}
	Multicast(eps[0], 4, testMsg(1))
	for i := 1; i < 4; i++ {
		cols[i].waitFor(t, 1, time.Second)
	}
	time.Sleep(20 * time.Millisecond)
	if cols[0].count() != 0 {
		t.Fatal("multicast delivered to self")
	}
}

// TestEstimateSizeIsExact pins that the size the bandwidth model (and
// the benchmark's byte counters) charge is the size on the wire, for
// every message type: zero values, a payload-bearing batch, and the
// MinBFT view-change messages the former size table had no arm for and
// priced at 80 bytes, history and embedded PREPARE included.
func TestEstimateSizeIsExact(t *testing.T) {
	auth := crypto.NewAuthenticator(crypto.NewKeyStore(crypto.ClientIDBase, crypto.NewKeyFromSeed("s")), crypto.Hash(nil), 3)
	req := &message.Request{Client: crypto.ClientIDBase, Seq: 1, Payload: make([]byte, 128), Auth: auth}
	minPrep := &message.MinPrepare{View: 1, Requests: []*message.Request{req, req}}
	minVC := &message.MinViewChange{
		Replica: 1, View: 2, CkptOrder: 50,
		CkptProof: []*message.Checkpoint{{Order: 50}, {Order: 50, Replica: 1}},
		History: [][]byte{
			message.Marshal(minPrep),
			message.Marshal(&message.MinCommit{View: 1, Replica: 1, Prepare: minPrep}),
		},
	}
	msgs := []message.Message{
		testMsg(1), req,
		&message.Reply{}, &message.Reply{Result: make([]byte, 1024)},
		&message.Prepare{}, &message.Prepare{View: 1, Order: 5, Requests: []*message.Request{req}},
		&message.Commit{}, &message.Checkpoint{},
		&message.ViewChange{}, &message.NewView{}, &message.NewViewAck{},
		&message.PrePrepare{Requests: []*message.Request{req}, Proof: message.Proof{Auth: auth}},
		&message.PBFTPrepare{}, &message.PBFTCommit{}, &message.PBFTCheckpoint{},
		&message.PBFTViewChange{}, &message.PBFTNewView{},
		minPrep, &message.MinCommit{}, &message.MinCommit{View: 1, Prepare: minPrep},
		&message.Suspect{Replica: 1, View: 2, Auth: auth},
		minVC, &message.MinNewView{View: 2, VCs: []*message.MinViewChange{minVC, minVC}},
		&message.StateRequest{}, &message.StateReply{Snapshot: make([]byte, 4096)},
	}
	for _, m := range msgs {
		if est, real := EstimateSize(m), len(message.Marshal(m)); est != real {
			t.Errorf("%s: EstimateSize %d, Marshal wrote %d bytes", m.MsgType(), est, real)
		}
	}
}

func TestTCPRoundtrip(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())
	b.AddPeer(0, a.Addr())

	col := newCollector()
	b.Handle(col.handler)

	want := &message.Prepare{View: 2, Order: 7, Requests: []*message.Request{testMsg(9)}}
	if err := a.Send(1, want); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, 2*time.Second)
	got := col.msgs[0].(*message.Prepare)
	if got.View != 2 || got.Order != 7 || len(got.Requests) != 1 || got.Requests[0].Seq != 9 {
		t.Fatalf("got %+v", got)
	}
	if col.from[0] != 0 {
		t.Fatalf("from = %d", col.from[0])
	}
}

func TestTCPManyMessagesBidirectional(t *testing.T) {
	a, _ := NewTCP(0, "127.0.0.1:0", nil)
	defer a.Close()
	b, _ := NewTCP(1, "127.0.0.1:0", nil)
	defer b.Close()
	a.AddPeer(1, b.Addr())
	b.AddPeer(0, a.Addr())

	colA, colB := newCollector(), newCollector()
	a.Handle(colA.handler)
	b.Handle(colB.handler)

	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := a.Send(1, testMsg(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(0, testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	colA.waitFor(t, n, 5*time.Second)
	colB.waitFor(t, n, 5*time.Second)
	for i, m := range colB.msgs {
		if m.(*message.Request).Seq != uint64(i) {
			t.Fatalf("TCP reordered: msg %d seq %d", i, m.(*message.Request).Seq)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := NewTCP(0, "127.0.0.1:0", nil)
	defer a.Close()
	if err := a.Send(5, testMsg(1)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, _ := NewTCP(0, "127.0.0.1:0", nil)
	defer a.Close()
	b, _ := NewTCP(1, "127.0.0.1:0", nil)
	addrB := b.Addr()
	a.AddPeer(1, addrB)

	col := newCollector()
	b.Handle(col.handler)
	if err := a.Send(1, testMsg(1)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, 2*time.Second)

	_ = b.Close()
	// Sends while b is down succeed immediately: the self-healing link
	// queues them for redelivery.
	for i := 0; i < 5; i++ {
		if err := a.Send(1, testMsg(2)); err != nil {
			t.Fatalf("send during outage: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	b2, err := NewTCP(1, addrB, nil)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrB, err)
	}
	defer b2.Close()
	col2 := newCollector()
	b2.Handle(col2.handler)

	// The background sender redials on its own.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && col2.count() == 0 {
		_ = a.Send(1, testMsg(3))
		time.Sleep(20 * time.Millisecond)
	}
	if col2.count() == 0 {
		t.Fatal("no message after peer restart")
	}
}

func TestTCPClosedSend(t *testing.T) {
	a, _ := NewTCP(0, "127.0.0.1:0", nil)
	_ = a.Close()
	if err := a.Send(1, testMsg(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
