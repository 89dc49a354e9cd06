package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hybster/internal/message"
	"hybster/internal/telemetry"
)

// fastTCPOptions shrink the self-healing timers so tests run quickly.
func fastTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:       500 * time.Millisecond,
		BackoffMin:        10 * time.Millisecond,
		BackoffMax:        100 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	}
}

// deadAddr returns a loopback address with nothing listening on it.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func TestTCPSendNonBlockingWhileUnreachable(t *testing.T) {
	a, err := NewTCPWithOptions(0, "127.0.0.1:0", map[uint32]string{1: deadAddr(t)}, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// The peer stays unreachable for seconds, yet 200 sends must
	// return immediately: they only enqueue on the bounded link.
	start := time.Now()
	for i := uint64(0); i < 200; i++ {
		if err := a.Send(1, testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("200 sends to an unreachable peer took %v", elapsed)
	}

	// Backoff redial keeps trying in the background.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := a.PeerState(1); st.Attempts >= 3 && st.Queued > 0 && !st.Connected {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := a.PeerState(1)
	t.Fatalf("peer state after 3s of outage: %+v", st)
}

// queuedSeqs decodes the request sequence numbers of a link's queue.
func queuedSeqs(t *testing.T, l *peerLink) []uint64 {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var seqs []uint64
	for _, frame := range l.queue {
		m, err := message.Unmarshal(frame[8:])
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, m.(*message.Request).Seq)
	}
	return seqs
}

func TestTCPQueueDropsOldestOnOverflow(t *testing.T) {
	opts := fastTCPOptions()
	opts.QueueDepth = 8
	opts.Telemetry = telemetry.New("test")
	a, err := NewTCPWithOptions(0, "127.0.0.1:0", map[uint32]string{1: deadAddr(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	l := a.routes.Load().links[1]

	for i := uint64(0); i < 20; i++ {
		if err := a.Send(1, testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := queuedSeqs(t, l), []uint64{12, 13, 14, 15, 16, 17, 18, 19}; !slices.Equal(got, want) {
		t.Fatalf("queue holds %v after 20 sends at depth 8, want the newest eight %v", got, want)
	}
	if st, _ := a.PeerState(1); st.Drops != 12 || st.Queued != 8 {
		t.Fatalf("state %+v, want 12 drops and 8 queued", st)
	}

	// A dropped frame is released, not left reachable in the slot the
	// queue advanced past (send until the next append stays in place).
	l.mu.Lock()
	for cap(l.queue) == len(l.queue) {
		l.mu.Unlock()
		_ = a.Send(1, testMsg(99))
		l.mu.Lock()
	}
	before := l.queue
	l.mu.Unlock()
	_ = a.Send(1, testMsg(99))
	if before[0] != nil {
		t.Fatal("the slot of a dropped frame still references it")
	}

	// A batch whose write failed goes back in front of newer frames, in
	// order, and the bound still holds by dropping from the front.
	l.mu.Lock()
	l.queue = nil
	l.mu.Unlock()
	for i := uint64(30); i < 35; i++ {
		_ = a.Send(1, testMsg(i))
	}
	l.mu.Lock()
	batch := l.queue
	l.queue = nil
	l.mu.Unlock()
	for i := uint64(35); i < 39; i++ {
		_ = a.Send(1, testMsg(i))
	}
	drops, _ := a.PeerState(1)
	l.requeue(batch) // 5 unwritten + 4 newer = 9 at depth 8
	if got, want := queuedSeqs(t, l), []uint64{31, 32, 33, 34, 35, 36, 37, 38}; !slices.Equal(got, want) {
		t.Fatalf("queue holds %v after requeue, want %v", got, want)
	}
	st, _ := a.PeerState(1)
	if st.Drops != drops.Drops+1 {
		t.Fatalf("requeue overflow counted %d drops, want 1", st.Drops-drops.Drops)
	}
	if got := opts.Telemetry.Metrics().Value(`hybster_transport_drops_total{peer="1"}`); got != float64(st.Drops) {
		t.Fatalf("hybster_transport_drops_total = %v, link state says %d", got, st.Drops)
	}
}

func TestTCPFlushesQueueAfterPeerRestart(t *testing.T) {
	// Satellite scenario: a peer's listener dies mid-run and comes back
	// on the same address; the other node must reconnect on its own and
	// deliver everything queued during the outage — no AddPeer, no
	// manual retransmission.
	a, err := NewTCPWithOptions(0, "127.0.0.1:0", nil, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPWithOptions(1, "127.0.0.1:0", nil, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	addrB := b.Addr()
	a.AddPeer(1, addrB)

	col := newCollector()
	b.Handle(col.handler)
	if err := a.Send(1, testMsg(0)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, 2*time.Second)

	_ = b.Close()
	// Wait until a noticed the outage (heartbeat write or read fails),
	// so everything sent from here on is queued, not written into a
	// dying socket.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if st, _ := a.PeerState(1); !st.Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a never noticed the dead peer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const queued = 50
	for i := uint64(1); i <= queued; i++ {
		if err := a.Send(1, testMsg(i)); err != nil {
			t.Fatal(err)
		}
	}

	b2, err := NewTCPWithOptions(1, addrB, nil, fastTCPOptions())
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrB, err)
	}
	defer b2.Close()
	col2 := newCollector()
	b2.Handle(col2.handler)

	col2.waitFor(t, queued, 5*time.Second)
	for i, m := range col2.msgs[:queued] {
		if got := m.(*message.Request).Seq; got != uint64(i+1) {
			t.Fatalf("after restart message %d has seq %d — queue not flushed in order", i, got)
		}
	}
	if st, _ := a.PeerState(1); !st.Connected {
		t.Fatalf("link not marked connected after flush: %+v", st)
	}

	// Second cut, this time through a batch in flight: the receiver is
	// slow, so a's link sits in one large vectored write when its
	// connection is closed under it. Closing a's side is the one cut
	// after which "every frame arrives" is decidable — what the kernel
	// accepted is still delivered, what it did not must be requeued —
	// and the link is pointed at a dead address meanwhile so that the
	// old connection is read to its end before the new one opens and
	// arrival order at the one handler is the link's order.
	const streamed, after = 1500, 10
	payload := make([]byte, 8<<10)
	b2.Handle(func(from uint32, m message.Message) {
		time.Sleep(50 * time.Microsecond)
		col2.handler(from, m)
	})
	for i := uint64(1); i <= streamed; i++ {
		m := testMsg(queued + i)
		m.Payload = payload
		if err := a.Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	col2.waitFor(t, queued+streamed/8, 5*time.Second)
	a.AddPeer(1, deadAddr(t))
	a.mu.Lock()
	for conn := range a.open { // the one connection a has: its link to b2
		_ = conn.Close()
	}
	a.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		b2.mu.Lock()
		open := len(b2.open)
		b2.mu.Unlock()
		if st, _ := a.PeerState(1); open == 0 && !st.Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cut connection was never read to its end")
		}
	}
	if st, _ := a.PeerState(1); st.Queued == 0 {
		t.Fatal("nothing was left to requeue: the cut missed the batch")
	}
	for i := uint64(1); i <= after; i++ {
		if err := a.Send(1, testMsg(queued+streamed+i)); err != nil {
			t.Fatal(err)
		}
	}
	a.AddPeer(1, addrB)
	last := uint64(queued)
	for deadline := time.Now().Add(10 * time.Second); last < queued+streamed+after; {
		if time.Now().After(deadline) {
			t.Fatalf("frames up to %d arrived, want all %d", last, queued+streamed+after)
		}
		time.Sleep(10 * time.Millisecond)
		col2.mu.Lock()
		last = queued
		for _, m := range col2.msgs[queued:] {
			switch seq := m.(*message.Request).Seq; {
			case seq == last+1:
				last = seq
			case seq > last+1:
				col2.mu.Unlock()
				t.Fatalf("frame %d arrived after frame %d: lost or reordered across the cut", seq, last)
			}
		}
		col2.mu.Unlock()
	}
}

func TestTCPHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	// With an idle read deadline of 3×50ms on inbound connections, a
	// connection with no application traffic survives only because of
	// heartbeats; delivery after a long quiet phase must not need a
	// redial.
	a, err := NewTCPWithOptions(0, "127.0.0.1:0", nil, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPWithOptions(1, "127.0.0.1:0", nil, fastTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())

	col, colA := newCollector(), newCollector()
	b.Handle(col.handler)
	a.Handle(colA.handler)
	if err := a.Send(1, testMsg(0)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1, 2*time.Second)

	time.Sleep(600 * time.Millisecond) // 4× the idle read deadline, no traffic

	if err := a.Send(1, testMsg(1)); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 2, 2*time.Second)
	if st, _ := a.PeerState(1); st.Attempts != 0 {
		t.Fatalf("link redialed %d times during idle phase — heartbeats failed", st.Attempts)
	}
	// The reply path (b has no configured address for 0) rides the same
	// heartbeat-kept connection; it must still work after the idle phase.
	if err := b.Send(0, testMsg(2)); err != nil {
		t.Fatal(err)
	}
	colA.waitFor(t, 1, 2*time.Second)
}

func TestTCPCloseDuringRedialBackoff(t *testing.T) {
	opts := fastTCPOptions()
	opts.BackoffMin, opts.BackoffMax = time.Hour, time.Hour
	a, err := NewTCPWithOptions(0, "127.0.0.1:0", map[uint32]string{1: deadAddr(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := a.PeerState(1); st.Attempts > 0 {
			break // the first dial failed: the link now sits in its hour-long pause
		}
		if time.Now().After(deadline) {
			t.Fatal("link never dialed")
		}
	}
	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close during the redial pause took %v", elapsed)
	}
}

func TestTCPBuildFrameSingleAllocation(t *testing.T) {
	a, err := NewTCP(5, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	m := testMsg(1)
	m.Payload = make([]byte, 1024)
	frame := a.buildFrame(m) // warms the encoder pool
	if binary.BigEndian.Uint32(frame) != uint32(len(frame)-4) || binary.BigEndian.Uint32(frame[4:]) != a.ID() ||
		!bytes.Equal(frame[8:], message.Marshal(m)) {
		t.Fatal("frame is not [len][sender][Marshal(m)]")
	}
	if cap(frame) != len(frame) {
		t.Fatalf("frame has spare capacity (len %d, cap %d)", len(frame), cap(frame))
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.buildFrame(m) }); n != 1 {
		t.Fatalf("buildFrame of a 1 KiB request allocates %.1f/op, want 1", n)
	}
}

// feedStream runs a read loop of ep over one end of a synchronous pipe
// and writes chunks into the other, one Write each, so the reader sees
// the byte stream cut exactly there. It reports whether the reader
// closed the stream before taking everything.
func feedStream(t *testing.T, ep *TCPEndpoint, chunks ...[]byte) (closedEarly bool) {
	t.Helper()
	server, client := net.Pipe()
	done := make(chan struct{})
	ep.wg.Add(1)
	go func() {
		ep.readLoop(&tcpConn{Conn: server, met: &ep.met}, true)
		close(done)
	}()
	for _, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		if _, err := client.Write(chunk); err != nil {
			closedEarly = true
			break
		}
	}
	_ = client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not end with its stream")
	}
	return closedEarly
}

// TestTCPFrameReader drives the read loop with hand-cut byte streams.
func TestTCPFrameReader(t *testing.T) {
	ep, err := NewTCP(7, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var mu sync.Mutex
	var got []uint64
	ep.Handle(func(from uint32, m message.Message) {
		mu.Lock()
		defer mu.Unlock()
		if from != 7 {
			t.Errorf("frame from %d, want 7", from)
		}
		got = append(got, m.(*message.Request).Seq)
	})
	frame := func(seq uint64, size int) []byte {
		m := testMsg(seq)
		m.Payload = nil
		if size > 0 {
			m.Payload = make([]byte, size-len(ep.buildFrame(m)))
		}
		return ep.buildFrame(m)
	}
	rawFrame := func(n uint32, body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), body...)
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	expect := func(t *testing.T, wantClosed bool, want []uint64, chunks ...[]byte) {
		t.Helper()
		mu.Lock()
		got = nil
		mu.Unlock()
		closed := feedStream(t, ep, chunks...)
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(got, want) || closed != wantClosed {
			t.Fatalf("delivered %v (stream closed early: %v), want %v (%v)", got, closed, want, wantClosed)
		}
	}

	three := cat(frame(1, 0), frame(2, 0), frame(3, 0))
	t.Run("three frames cut at every byte", func(t *testing.T) {
		for cut := 0; cut <= len(three); cut++ {
			expect(t, false, []uint64{1, 2, 3}, three[:cut], three[cut:])
		}
	})
	t.Run("many frames in one segment", func(t *testing.T) {
		var frames [][]byte
		var want []uint64
		for i := uint64(1); i <= 200; i++ { // ≈ 4 buffers' worth
			frames, want = append(frames, frame(i, 0)), append(want, i)
		}
		expect(t, false, want, cat(frames...))
	})
	t.Run("frame of exactly the buffer size, and one byte more", func(t *testing.T) {
		exact, larger := frame(2, connReadBuf), frame(3, connReadBuf+1)
		if len(exact) != connReadBuf || len(larger) != connReadBuf+1 {
			t.Fatalf("frames of %d and %d bytes", len(exact), len(larger))
		}
		stream := cat(frame(1, 0), exact, larger, frame(4, 0))
		expect(t, false, []uint64{1, 2, 3, 4}, stream)
		expect(t, false, []uint64{1, 2, 3, 4}, stream[:len(stream)/2], stream[len(stream)/2:])
	})
	t.Run("heartbeat between data frames", func(t *testing.T) {
		expect(t, false, []uint64{1, 2}, cat(frame(1, 0), ep.heartbeat, frame(2, 0)))
	})
	t.Run("length below the sender field closes the stream", func(t *testing.T) {
		expect(t, true, []uint64{1}, frame(1, 0), rawFrame(3, 0, 0, 7), frame(2, 0))
	})
	t.Run("length above maxFrameSize closes the stream", func(t *testing.T) {
		expect(t, true, []uint64{1}, frame(1, 0), rawFrame(maxFrameSize+1, 0, 0, 0, 7), frame(2, 0))
	})
	t.Run("malformed payload is skipped", func(t *testing.T) {
		expect(t, false, []uint64{1, 2}, cat(frame(1, 0), rawFrame(6, 0, 0, 0, 7, 0xff, 0xff), frame(2, 0)))
	})
}

// streamConn is a connection whose inbound byte stream is r.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c *streamConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *streamConn) Close() error                    { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error { return nil }

// FuzzFrameStream feeds arbitrary bytes to the read loop: it must not
// panic, and no length prefix may make it allocate more than one
// maximal frame beyond what decoding the bytes present costs.
func FuzzFrameStream(f *testing.F) {
	ep, err := NewTCP(7, "127.0.0.1:0", nil)
	if err != nil {
		f.Fatal(err)
	}
	defer ep.Close()
	ep.Handle(func(uint32, message.Message) {})
	m := testMsg(1)
	valid := ep.buildFrame(m)
	m.Payload = make([]byte, 2*connReadBuf)
	f.Add(bytes.Join([][]byte{valid, ep.heartbeat, ep.buildFrame(m), valid}, nil))
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{4, 0, 0, 1, 0, 0, 0, 7})
	f.Add([]byte{0, 0, 0x20, 0, 0, 0, 0, 7, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ep.wg.Add(1)
		ep.readLoop(&tcpConn{Conn: &streamConn{r: bytes.NewReader(data)}, met: &ep.met}, true)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrameSize+256*uint64(len(data))+1<<20 {
			t.Fatalf("%d bytes of input made the read loop allocate %d", len(data), grew)
		}
	})
}

// TestTCPConcurrentSendMulticastClose races every sender against Close:
// multicasts over links, reply-path writes from several goroutines, and
// inbound traffic, with the endpoints closed underneath them.
func TestTCPConcurrentSendMulticastClose(t *testing.T) {
	var eps []*TCPEndpoint
	for id := uint32(0); id < 4; id++ { // 0-2 replicas, 3 a client without an address
		ep, err := NewTCPWithOptions(id, "127.0.0.1:0", nil, fastTCPOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		ep.Handle(func(uint32, message.Message) {})
		eps = append(eps, ep)
	}
	for i, ep := range eps {
		for j, peer := range eps[:3] {
			if i != j {
				ep.AddPeer(uint32(j), peer.Addr())
			}
		}
	}
	reached := newCollector()
	eps[0].Handle(reached.handler)
	if err := eps[3].Send(0, testMsg(0)); err != nil {
		t.Fatal(err)
	}
	reached.waitFor(t, 1, 2*time.Second) // replica 0 now has a reply path to the client

	stop := make(chan struct{})
	var wg sync.WaitGroup
	spin := func(send func(seq uint64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
					send(seq)
				}
			}
		}()
	}
	spin(func(seq uint64) { Multicast(eps[0], 3, testMsg(seq)) })
	spin(func(seq uint64) { Multicast(eps[1], 3, testMsg(seq)) })
	for i := 0; i < 3; i++ {
		spin(func(seq uint64) { _ = eps[0].Send(3, testMsg(seq)) })
	}
	spin(func(seq uint64) { _ = eps[3].Send(0, testMsg(seq)) })
	time.Sleep(20 * time.Millisecond)
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := eps[0].Send(3, testMsg(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close: %v, want ErrClosed", err)
	}
}

// TestTCPSilentInboundConnectionIsClosed states the idle-deadline
// contract: the read deadline is pushed out every ReadIdleTimeout/4 at
// most, so a connection that goes silent is closed between ¾ and 1 ×
// ReadIdleTimeout after its last frame — never sooner, however the
// frames before fell relative to the last push.
func TestTCPSilentInboundConnectionIsClosed(t *testing.T) {
	const idle = 400 * time.Millisecond
	opts := fastTCPOptions()
	opts.ReadIdleTimeout = idle
	ep, err := NewTCPWithOptions(0, "127.0.0.1:0", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for _, gap := range []time.Duration{idle / 5, idle * 3 / 10} {
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := []byte{0, 0, 0, 4, 0, 0, 0, 9}
		var last time.Time
		for i := 0; i < 4; i++ {
			if i > 0 {
				time.Sleep(gap)
			}
			last = time.Now()
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
		}
		_ = conn.SetReadDeadline(last.Add(3 * idle))
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("gap %v: read on the silent connection: %v, want EOF from the endpoint closing it", gap, err)
		}
		// The upper bound is the contract plus scheduling slack; the
		// lower one is exact (minus the write-to-read skew).
		if silent := time.Since(last); silent < idle*3/4-10*time.Millisecond || silent > idle+300*time.Millisecond {
			t.Fatalf("gap %v: closed %v after the last frame, want between %v and %v", gap, silent, idle*3/4, idle)
		}
	}
}

// TestTCPMetricNames pins the endpoint's telemetry surface: the eight
// endpoint-wide series and the three per-peer ones. /vars readers and
// benchmark/layers.go (sent_frames) go by these names.
func TestTCPMetricNames(t *testing.T) {
	tel := telemetry.New("test")
	opts := fastTCPOptions()
	opts.Telemetry = tel
	ep, err := NewTCPWithOptions(0, "127.0.0.1:0", map[uint32]string{1: deadAddr(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var names []string
	for name := range tel.Metrics().Snapshot() {
		if strings.HasPrefix(name, "hybster_transport_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	want := []string{
		`hybster_transport_drops_total{peer="1"}`,
		`hybster_transport_heartbeats_total`,
		`hybster_transport_multicast_saved_marshals_total`,
		`hybster_transport_queue_depth{peer="1"}`,
		`hybster_transport_reads_total`,
		`hybster_transport_recv_bytes_total`,
		`hybster_transport_recv_frames_total`,
		`hybster_transport_redials_total{peer="1"}`,
		`hybster_transport_sent_bytes_total`,
		`hybster_transport_sent_frames_total`,
		`hybster_transport_writes_total`,
	}
	if strings.Join(names, "\n") != strings.Join(want, "\n") {
		t.Fatalf("transport metric names:\n%s\nwant:\n%s", strings.Join(names, "\n"), strings.Join(want, "\n"))
	}
}
