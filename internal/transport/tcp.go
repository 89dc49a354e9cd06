package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/message"
	"hybster/internal/telemetry"
)

// maxFrameSize bounds accepted wire frames (64 MiB), guarding against
// corrupt length prefixes.
const maxFrameSize = 64 << 20

// connReadBuf is the size of a connection's buffered reader. Measured,
// not tunable: 4 KiB holds three 1 KiB requests or some thirty COMMITs;
// 32 KiB saved no more CPU and nearly doubled the time to open the
// benchmark's ~100 connections (EXPERIMENTS.md "PR 17").
const connReadBuf = 4 << 10

// maxPooledReadBuf caps the size of read buffers kept in the pool;
// rare oversized frames (state transfer) allocate fresh and are left
// for the GC rather than pinning megabytes in the pool.
const maxPooledReadBuf = 64 << 10

// readBufPool recycles the buffers of frames too large for a
// connection's own buffer (big PREPARE batches) across all read loops.
// Safe because the codec clones every variable-length field on decode,
// so no decoded message aliases a pooled buffer.
var readBufPool sync.Pool

func getReadBuf(n int) []byte {
	if n <= maxPooledReadBuf {
		if v, _ := readBufPool.Get().(*[]byte); v != nil {
			if cap(*v) >= n {
				return (*v)[:n]
			}
		}
		return make([]byte, n, maxPooledReadBuf)
	}
	return make([]byte, n)
}

func putReadBuf(b []byte) {
	if cap(b) > maxPooledReadBuf || cap(b) == 0 {
		return
	}
	b = b[:0]
	readBufPool.Put(&b)
}

// TCPOptions tune the self-healing behaviour of a TCPEndpoint. The
// zero value selects the defaults below.
type TCPOptions struct {
	// QueueDepth bounds the per-peer outbound queue; when it is full
	// the oldest frame is dropped (the protocols tolerate loss and
	// retransmit), so one unreachable peer can never wedge a sender.
	// Default 4096.
	QueueDepth int
	// DialTimeout bounds one connection attempt. Default 3s.
	DialTimeout time.Duration
	// BackoffMin is the redial backoff after the first failure; it
	// doubles per consecutive failure up to BackoffMax, with ±50%
	// jitter to avoid reconnection stampedes. Defaults 20ms / 2s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// HeartbeatInterval is how long a peer connection may sit idle
	// before a heartbeat frame is written to it. Default 500ms.
	HeartbeatInterval time.Duration
	// ReadIdleTimeout is the read deadline on inbound connections;
	// peers heartbeat when idle, so a silent inbound connection is a
	// dead one and is closed ¾ to 1 × ReadIdleTimeout after its last
	// frame. Default 3×heartbeat.
	ReadIdleTimeout time.Duration
	// Telemetry receives the endpoint's metrics (hybster_transport_*);
	// nil disables instrumentation.
	Telemetry *telemetry.Telemetry
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 20 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.ReadIdleTimeout <= 0 {
		o.ReadIdleTimeout = 3 * o.HeartbeatInterval
	}
	return o
}

// PeerState is a snapshot of one outbound peer link's health.
type PeerState struct {
	// Connected reports whether a live connection to the peer exists.
	Connected bool
	// Attempts counts dial attempts that failed since the link was
	// created (cumulative; it keeps growing across outages).
	Attempts uint64
	// Drops counts frames discarded by queue overflow (drop-oldest).
	Drops uint64
	// Queued is the current outbound queue length.
	Queued int
}

// tcpConn serializes frame writes; a frame must reach the stream
// atomically even when several goroutines send concurrently (the
// reply path writes directly from protocol goroutines). It counts the
// calls made on the socket in either direction.
type tcpConn struct {
	net.Conn
	met *tcpMetrics
	mu  sync.Mutex
}

func (c *tcpConn) Read(p []byte) (int, error) {
	c.met.reads.Inc()
	return c.Conn.Read(p)
}

func (c *tcpConn) writeFrame(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.writes.Inc()
	_, err := c.Conn.Write(frame)
	return err
}

// writeFrames writes a batch with one call (writev on a TCP socket).
// It consumes bufs: after an error, what it did not write in full.
func (c *tcpConn) writeFrames(bufs *net.Buffers) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.writes.Inc()
	_, err := bufs.WriteTo(c.Conn)
	return err
}

// peerLink is the self-healing outbound channel to one peer: a bounded
// drop-oldest frame queue drained by a background sender goroutine
// that dials with exponential backoff and heartbeats when idle.
// Protocol goroutines only ever enqueue; they never block on the
// network.
type peerLink struct {
	ep   *TCPEndpoint
	id   uint32
	addr string

	// Per-peer metric handles (nil-safe; resolved in AddPeer).
	mDrops   *telemetry.Counter
	mRedials *telemetry.Counter

	mu     sync.Mutex
	queue  [][]byte
	notify chan struct{}
	closed bool
	state  PeerState
}

func (l *peerLink) enqueue(frame []byte) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, frame)
	l.dropOldest()
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// dropOldest cuts the queue back to its bound from the front, releasing
// the dropped frames. The caller holds l.mu.
func (l *peerLink) dropOldest() {
	if over := len(l.queue) - l.ep.opts.QueueDepth; over > 0 {
		clear(l.queue[:over])
		l.queue = l.queue[over:]
		l.state.Drops += uint64(over)
		l.mDrops.Add(uint64(over))
	}
}

// requeue puts the frames of a batch whose write failed back in front
// of everything queued since, in order, so the redialed connection
// retries them instead of losing them.
func (l *peerLink) requeue(unwritten [][]byte) {
	l.mu.Lock()
	if !l.closed {
		l.queue = append(unwritten, l.queue...)
		l.dropOldest()
	}
	l.mu.Unlock()
}

func (l *peerLink) snapshot() PeerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.state
	s.Queued = len(l.queue)
	return s
}

// run is the link's sender loop: connect (with backoff), drain the
// queue, heartbeat when idle, reconnect on error.
func (l *peerLink) run() {
	defer l.ep.wg.Done()
	backoff := l.ep.opts.BackoffMin
	// One stoppable timer (created stopped) serves every redial pause:
	// an abandoned time.After would outlive Close by up to BackoffMax.
	pause := time.NewTimer(time.Hour)
	defer pause.Stop()
	pause.Stop()
	for {
		conn, ok := l.connect(&backoff, pause)
		if !ok {
			return // endpoint closed
		}
		l.drain(conn)
		// drain only returns on write error or shutdown; drop the
		// broken connection (its read loop untracks it) and redial.
		_ = conn.Close()
	}
}

// connect establishes (or reuses) the outbound connection, sleeping
// with exponential backoff plus jitter between failed attempts.
func (l *peerLink) connect(backoff *time.Duration, pause *time.Timer) (*tcpConn, bool) {
	for {
		if l.isClosed() {
			return nil, false
		}
		l.mu.Lock()
		addr := l.addr
		l.mu.Unlock()
		raw, err := net.DialTimeout("tcp", addr, l.ep.opts.DialTimeout)
		if err == nil {
			if tc, ok := raw.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			c := &tcpConn{Conn: raw, met: &l.ep.met}
			if !l.ep.serve(c, false) {
				_ = raw.Close()
				return nil, false
			}
			l.mu.Lock()
			l.state.Connected = true
			l.mu.Unlock()
			*backoff = l.ep.opts.BackoffMin
			return c, true
		}
		l.mu.Lock()
		l.state.Attempts++
		l.mu.Unlock()
		l.mRedials.Inc()
		// ±50% jitter decorrelates redials across the cluster.
		sleep := *backoff/2 + time.Duration(rand.Int63n(int64(*backoff)))
		if *backoff *= 2; *backoff > l.ep.opts.BackoffMax {
			*backoff = l.ep.opts.BackoffMax
		}
		pause.Reset(sleep) // stopped or expired, and drained, whenever we get here
		select {
		case <-pause.C:
		case <-l.ep.done:
			return nil, false
		}
	}
}

// drain writes queued frames to conn, heartbeating when idle. It
// returns when a write fails or the endpoint shuts down. Each wake-up
// swaps the whole queue out and writes it with one call, so the lock,
// the syscall and the idle-timer reset are per batch, not per frame
// (and a link holds up to QueueDepth frames queued plus as many in
// flight).
//
// The first frame on a freshly dialed connection is the ID-announcing
// heartbeat frame: the peer can answer a node without a listen address
// (a client) only over a connection that node opened and identified
// itself on, and a client's first request is addressed to one replica
// while all of them reply.
func (l *peerLink) drain(conn *tcpConn) {
	defer func() {
		l.mu.Lock()
		l.state.Connected = false
		l.mu.Unlock()
	}()
	if err := conn.writeFrame(l.ep.heartbeat); err != nil {
		return
	}
	idle := time.NewTimer(l.ep.opts.HeartbeatInterval)
	defer idle.Stop()
	var spare [][]byte
	var iov, bufs net.Buffers // bufs escapes into the write: hoisted, once per connection
	for {
		l.mu.Lock()
		batch := l.queue
		l.queue = spare
		l.mu.Unlock()
		if len(batch) == 0 {
			spare = batch
			select {
			case <-l.notify:
				continue
			case <-idle.C:
				if err := conn.writeFrame(l.ep.heartbeat); err != nil {
					return
				}
				l.ep.met.heartbeats.Inc()
				idle.Reset(l.ep.opts.HeartbeatInterval)
				continue
			case <-l.ep.done:
				return
			}
		}
		// Writing consumes its vector, so it gets a copy: the frame cut
		// short by an error must be retried from its first byte.
		iov = append(iov[:0], batch...)
		bufs = iov
		if err := conn.writeFrames(&bufs); err != nil {
			written := len(batch) - len(bufs)
			clear(batch[:written])
			l.requeue(batch[written:])
			return
		}
		clear(batch)
		spare = batch[:0]
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(l.ep.opts.HeartbeatInterval)
	}
}

func (l *peerLink) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *peerLink) close() {
	l.mu.Lock()
	l.closed = true
	l.queue = nil
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// TCPEndpoint is a real-network transport: one listener per node,
// length-prefixed frames, and self-healing outbound peer links — per
// peer a bounded drop-oldest queue, a background sender, exponential
// backoff + jitter redial, and heartbeats with idle read deadlines to
// detect dead peers. Send never blocks on the network, so a slow or
// unreachable peer cannot wedge a protocol goroutine. Nodes without a
// configured address (clients) are answered over the connection their
// traffic arrived on. It serves the multi-process deployment driven by
// cmd/hybster-replica and cmd/hybster-client.
type TCPEndpoint struct {
	id        uint32
	listener  net.Listener
	opts      TCPOptions
	heartbeat []byte // prebuilt empty frame announcing our ID
	done      chan struct{}

	// The data path takes no endpoint lock: a send resolves its
	// destination in the current routing snapshot, a received frame its
	// handler, with one atomic load each.
	routes  atomic.Pointer[tcpRoutes]
	handler atomic.Pointer[Handler]

	mu    sync.Mutex // serializes the mutators below; each republishes routes
	links map[uint32]*peerLink
	open  map[*tcpConn]struct{} // every live connection, dialed or accepted
	// replyPath maps node IDs to the inbound connection their frames
	// last arrived on, providing a return channel to clients that
	// have no listener of their own registered here.
	replyPath map[uint32]*tcpConn
	closed    bool
	wg        sync.WaitGroup

	met tcpMetrics
}

// tcpRoutes is one immutable snapshot of links, replyPath and closed.
type tcpRoutes struct {
	links     map[uint32]*peerLink
	replyPath map[uint32]*tcpConn
	closed    bool
}

// publish replaces the routing snapshot with a copy of the maps as they
// are now (per dial or close, never per frame). The caller holds ep.mu.
func (ep *TCPEndpoint) publish() {
	ep.routes.Store(&tcpRoutes{links: maps.Clone(ep.links), replyPath: maps.Clone(ep.replyPath), closed: ep.closed})
}

// tcpMetrics holds the endpoint-wide metric handles (all nil-safe;
// zero value = instrumentation off). Per-peer drops, redials, and
// queue depth live on the links.
type tcpMetrics struct {
	tel           *telemetry.Telemetry
	sentFrames    *telemetry.Counter
	sentBytes     *telemetry.Counter
	recvFrames    *telemetry.Counter
	recvBytes     *telemetry.Counter
	writes        *telemetry.Counter
	reads         *telemetry.Counter
	heartbeats    *telemetry.Counter
	savedMarshals *telemetry.Counter
}

func newTCPMetrics(tel *telemetry.Telemetry) tcpMetrics {
	if tel == nil {
		return tcpMetrics{}
	}
	return tcpMetrics{
		tel:           tel,
		sentFrames:    tel.Counter("hybster_transport_sent_frames_total", "frames queued or written outbound"),
		sentBytes:     tel.Counter("hybster_transport_sent_bytes_total", "framed bytes queued or written outbound"),
		recvFrames:    tel.Counter("hybster_transport_recv_frames_total", "frames read inbound (including heartbeats)"),
		recvBytes:     tel.Counter("hybster_transport_recv_bytes_total", "framed bytes read inbound"),
		writes:        tel.Counter("hybster_transport_writes_total", "write calls on sockets, links and reply paths alike (sent_frames / writes = frames per call)"),
		reads:         tel.Counter("hybster_transport_reads_total", "read calls on sockets (recv_frames / reads = frames per call)"),
		heartbeats:    tel.Counter("hybster_transport_heartbeats_total", "heartbeat frames written on idle links"),
		savedMarshals: tel.Counter("hybster_transport_multicast_saved_marshals_total", "per-destination marshals avoided by marshal-once multicast"),
	}
}

// NewTCP creates an endpoint for node id listening on listenAddr with
// default options. peers maps node IDs to their listen addresses; it
// may be extended later with AddPeer.
func NewTCP(id uint32, listenAddr string, peers map[uint32]string) (*TCPEndpoint, error) {
	return NewTCPWithOptions(id, listenAddr, peers, TCPOptions{})
}

// NewTCPWithOptions is NewTCP with explicit tuning (tests use short
// heartbeat and backoff intervals).
func NewTCPWithOptions(id uint32, listenAddr string, peers map[uint32]string, opts TCPOptions) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	hb := make([]byte, 8)
	binary.BigEndian.PutUint32(hb[0:4], 4)
	binary.BigEndian.PutUint32(hb[4:8], id)
	ep := &TCPEndpoint{
		id:        id,
		listener:  l,
		opts:      opts.withDefaults(),
		heartbeat: hb,
		done:      make(chan struct{}),
		links:     make(map[uint32]*peerLink),
		open:      make(map[*tcpConn]struct{}),
		replyPath: make(map[uint32]*tcpConn),
		met:       newTCPMetrics(opts.Telemetry),
	}
	ep.routes.Store(&tcpRoutes{})
	for pid, addr := range peers {
		ep.AddPeer(pid, addr)
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the actual listen address (useful with ":0").
func (ep *TCPEndpoint) Addr() string { return ep.listener.Addr().String() }

// AddPeer registers or updates the address of a peer and starts its
// self-healing sender link.
func (ep *TCPEndpoint) AddPeer(id uint32, addr string) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	if l, ok := ep.links[id]; ok {
		l.mu.Lock()
		l.addr = addr
		l.mu.Unlock()
		return
	}
	l := &peerLink{ep: ep, id: id, addr: addr, notify: make(chan struct{}, 1)}
	if tel := ep.met.tel; tel != nil {
		peer := telemetry.L("peer", fmt.Sprint(id))
		l.mDrops = tel.Counter("hybster_transport_drops_total",
			"frames discarded by queue overflow", peer)
		l.mRedials = tel.Counter("hybster_transport_redials_total",
			"failed dial attempts", peer)
		tel.GaugeFunc("hybster_transport_queue_depth",
			"current outbound queue length",
			func() float64 { return float64(l.snapshot().Queued) }, peer)
	}
	ep.links[id] = l
	ep.publish()
	ep.wg.Add(1)
	go l.run()
}

// PeerState returns the health snapshot of one peer link.
func (ep *TCPEndpoint) PeerState(id uint32) (PeerState, bool) {
	ep.mu.Lock()
	l, ok := ep.links[id]
	ep.mu.Unlock()
	if !ok {
		return PeerState{}, false
	}
	return l.snapshot(), true
}

// ID implements Endpoint.
func (ep *TCPEndpoint) ID() uint32 { return ep.id }

// Handle implements Endpoint.
func (ep *TCPEndpoint) Handle(h Handler) { ep.handler.Store(&h) }

// Send implements Endpoint. For configured peers the frame is queued
// on the peer's self-healing link and the call returns immediately;
// delivery is best effort with drop-oldest overflow. Destinations
// without a configured address are reached by a direct write on their
// last inbound connection, which is evicted on error so the next
// arrival re-establishes the path.
func (ep *TCPEndpoint) Send(to uint32, m message.Message) error {
	return ep.sendFrame(to, ep.buildFrame(m))
}

// buildFrame marshals m into an owned, immutable wire frame:
// [len u32 = 4+payload][sender u32][payload], one allocation.
func (ep *TCPEndpoint) buildFrame(m message.Message) []byte {
	frame := message.MarshalHeadroom(m, 8)
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-4))
	binary.BigEndian.PutUint32(frame[4:8], ep.id)
	return frame
}

// sendFrame queues or writes one prebuilt frame to a destination. The
// frame is immutable and may be shared between destinations.
func (ep *TCPEndpoint) sendFrame(to uint32, frame []byte) error {
	rt := ep.routes.Load()
	if rt.closed {
		return ErrClosed
	}
	ep.met.sentFrames.Inc()
	ep.met.sentBytes.Add(uint64(len(frame)))
	if l := rt.links[to]; l != nil {
		l.enqueue(frame)
		return nil
	}
	rp := rt.replyPath[to]
	if rp == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	// One direct write per reply: with one request outstanding per
	// client connection a queue would batch nothing and add a hop.
	if err := rp.writeFrame(frame); err != nil {
		// Evict the dead reply-path connection immediately: later
		// replies must not keep hitting it until the read loop notices.
		ep.evictReplyPath(to, rp)
		return fmt.Errorf("transport: send to %d: %w", to, err)
	}
	return nil
}

// Multicast implements Multicaster: the message is marshalled and
// framed exactly once and the same immutable byte slice is enqueued on
// every destination's link (or written down its reply path). Per-link
// frame queues never mutate frames, so sharing is safe.
func (ep *TCPEndpoint) Multicast(dests []uint32, m message.Message) {
	if len(dests) == 0 {
		return
	}
	frame := ep.buildFrame(m)
	for _, to := range dests {
		_ = ep.sendFrame(to, frame) // best effort, like Send
	}
	if len(dests) > 1 {
		ep.met.savedMarshals.Add(uint64(len(dests) - 1))
	}
}

// evictReplyPath removes a broken inbound reply connection.
func (ep *TCPEndpoint) evictReplyPath(to uint32, c *tcpConn) {
	ep.mu.Lock()
	if ep.replyPath[to] == c {
		delete(ep.replyPath, to)
		ep.publish()
	}
	ep.mu.Unlock()
	_ = c.Close()
}

// serve tracks a dialed or accepted connection and starts its read
// loop. It returns false when the endpoint is closed.
func (ep *TCPEndpoint) serve(c *tcpConn, isInbound bool) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return false
	}
	ep.open[c] = struct{}{}
	ep.wg.Add(1)
	go ep.readLoop(c, isInbound)
	return true
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		raw, err := ep.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !ep.serve(&tcpConn{Conn: raw, met: &ep.met}, true) {
			_ = raw.Close()
			return
		}
	}
}

// readLoop consumes frames from one connection through a fixed-size
// buffered reader: one read call takes in every frame the socket holds,
// and a frame that fits the buffer is decoded where it lies — Unmarshal
// deep-copies every variable-length field (the codec's clone-on-decode
// rule), so no message aliases bytes the next read overwrites. Inbound
// connections additionally register as the reply path of the sending
// node and carry an idle read deadline: peers heartbeat when idle, so
// silence beyond the deadline means the peer is dead and the connection
// is dropped.
func (ep *TCPEndpoint) readLoop(c *tcpConn, isInbound bool) {
	defer ep.wg.Done()
	defer func() {
		ep.mu.Lock()
		delete(ep.open, c)
		maps.DeleteFunc(ep.replyPath, func(_ uint32, rp *tcpConn) bool { return rp == c })
		ep.publish()
		ep.mu.Unlock()
		_ = c.Close()
	}()
	br := bufio.NewReaderSize(c, connReadBuf)
	idle := ep.opts.ReadIdleTimeout
	var armed time.Time // when the read deadline was last pushed out
	registered := false
	for {
		// Pushing the deadline out is a timer operation under the fd
		// lock, so it happens every idle/4 at most, not per frame: a
		// connection gone silent is closed ¾ to 1 × ReadIdleTimeout later.
		if isInbound && time.Since(armed) >= idle/4 {
			armed = time.Now()
			_ = c.SetReadDeadline(armed.Add(idle))
		}
		hdr, err := br.Peek(4)
		if err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr))
		if n < 4 || n > maxFrameSize {
			return // corrupt stream
		}
		// body is [sender u32][payload]: in place when the frame fits
		// the connection buffer, else (big PREPARE batches, state
		// transfer) in a rented one.
		var body, rented []byte
		if 4+n <= connReadBuf {
			if body, err = br.Peek(4 + n); err != nil {
				return
			}
			body = body[4:]
		} else {
			_, _ = br.Discard(4)
			rented = getReadBuf(n)
			if _, err := io.ReadFull(br, rented); err != nil {
				putReadBuf(rented)
				return
			}
			body = rented
		}
		ep.met.recvFrames.Inc()
		ep.met.recvBytes.Add(uint64(4 + n))
		from := binary.BigEndian.Uint32(body[0:4])
		var m message.Message
		if n > 4 { // n == 4 is a heartbeat frame: ID only, no payload
			m, err = message.Unmarshal(body[4:])
		}
		if rented != nil {
			putReadBuf(rented)
		} else {
			_, _ = br.Discard(4 + n)
		}
		if isInbound && !registered {
			ep.mu.Lock()
			ep.replyPath[from] = c
			ep.publish()
			ep.mu.Unlock()
			registered = true
		}
		if m == nil || err != nil {
			continue // heartbeat, or a malformed message: drop it, keep the stream
		}
		if ep.routes.Load().closed {
			return
		}
		if h := ep.handler.Load(); h != nil {
			(*h)(from, m)
		}
	}
}

// Close implements Endpoint.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	links, open := ep.links, ep.open
	ep.links, ep.open = map[uint32]*peerLink{}, map[*tcpConn]struct{}{}
	ep.publish()
	ep.mu.Unlock()

	close(ep.done)
	for _, l := range links {
		l.close()
	}
	err := ep.listener.Close()
	for c := range open {
		_ = c.Close()
	}
	ep.wg.Wait()
	return err
}
