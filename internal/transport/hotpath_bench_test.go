package transport

import (
	"testing"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/trinx"
)

// Multicast hot-path benchmark over the TCP endpoint: peers are
// unreachable so frames queue on the self-healing links (bounded,
// drop-oldest), which isolates the per-send marshal+frame cost from
// socket I/O. A marshal-once multicast pays one marshal per broadcast
// instead of one per destination.
func BenchmarkHotPathMulticastTCP(b *testing.B) {
	// Unreachable peer addresses: the first dial fails fast and the
	// hour-long backoff keeps the links quiet for the benchmark.
	peers := map[uint32]string{
		1: "127.0.0.1:1", 2: "127.0.0.1:1", 3: "127.0.0.1:1",
	}
	ep, err := NewTCPWithOptions(0, "127.0.0.1:0", peers, TCPOptions{
		BackoffMin: time.Hour,
		BackoffMax: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()

	ks := crypto.NewKeyStore(crypto.ClientIDBase, crypto.NewKeyFromSeed("bench"))
	reqs := make([]*message.Request, 16)
	for i := range reqs {
		r := &message.Request{
			Client:  crypto.ClientIDBase,
			Seq:     uint64(i + 1),
			Payload: []byte("hot-path-benchmark-payload"),
		}
		r.Auth = crypto.NewAuthenticator(ks, r.Digest(), 4)
		reqs[i] = r
	}
	p := &message.Prepare{
		View: 0, Order: 5, Requests: reqs,
		Cert: trinx.Certificate{
			Kind: trinx.Independent, Issuer: 1, Counter: 2,
			Value: uint64(timeline.Pack(0, 5)),
		},
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Multicast(ep, 4, p)
	}
}

// Memnet hot path: back-to-back Sends to the destination handler over
// one link, delivered inline while the link is idle and by the link
// goroutine once messages queue. Every figure runs on this path ~9
// times per request, so its cost is harness, not Hybster; it must stay
// allocation-free.
func BenchmarkHotPathMemnet(b *testing.B) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	src := net.Endpoint(0)
	done := make(chan struct{})
	delivered := 0 // touched under the link's delivery lock only
	net.Endpoint(1).Handle(func(uint32, message.Message) {
		if delivered++; delivered == b.N {
			close(done)
		}
	})
	m := &message.Request{Client: crypto.ClientIDBase, Seq: 1}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(1, m); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// Memnet round trip with one message in flight: a request over one
// link, the reply back over the other, the next request only after the
// reply. Every link is idle when a message reaches it, as in a closed
// loop, so this is the per-crossing cost a saturated
// BenchmarkHotPathMemnet hides: on the zero profile both crossings run
// on the sending goroutine, with no link goroutine to wake.
func BenchmarkHotPathMemnetIdle(b *testing.B) {
	net := NewNetwork(LinkProfile{})
	defer net.Close()
	client, replica := net.Endpoint(crypto.ClientIDBase), net.Endpoint(0)
	replica.Handle(func(from uint32, m message.Message) { _ = replica.Send(from, m) })
	back := make(chan struct{}, 1)
	client.Handle(func(uint32, message.Message) { back <- struct{}{} })
	m := &message.Request{Client: crypto.ClientIDBase, Seq: 1}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(0, m); err != nil {
			b.Fatal(err)
		}
		<-back
	}
}

// TCP wire hot path over real loopback sockets: a 1 KiB request from a
// client-like endpoint over its self-healing link, a 1 KiB reply back
// down the reply path, 32 requests in flight (two saturated clients'
// worth per replica in tcp-sat-1k terms). Besides ns/op and allocs/op
// of the whole round trip (marshal, frame, write, read, decode, twice)
// it reports how many frames shared one socket call.
func BenchmarkHotPathTCPStream(b *testing.B) {
	telC, telR := telemetry.New("bench"), telemetry.New("bench")
	replica, err := NewTCPWithOptions(0, "127.0.0.1:0", nil, TCPOptions{Telemetry: telR})
	if err != nil {
		b.Fatal(err)
	}
	defer replica.Close()
	client, err := NewTCPWithOptions(crypto.ClientIDBase, "127.0.0.1:0", map[uint32]string{0: replica.Addr()}, TCPOptions{Telemetry: telC})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	kib := make([]byte, 1024)
	replica.Handle(func(from uint32, m message.Message) {
		req := m.(*message.Request)
		_ = replica.Send(from, &message.Reply{Replica: 0, Client: from, Seq: req.Seq, Result: kib})
	})
	window := make(chan struct{}, 32) // requests in flight
	done := make(chan struct{})
	replies := 0 // touched by the client's one read loop only
	client.Handle(func(uint32, message.Message) {
		<-window
		if replies++; replies == b.N {
			close(done)
		}
	})
	ratio := func(frames, calls string) float64 {
		sum := func(name string) float64 {
			return telC.Metrics().Value(name) + telR.Metrics().Value(name)
		}
		return sum(frames) / sum(calls)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window <- struct{}{}
		if err := client.Send(0, &message.Request{Client: crypto.ClientIDBase, Seq: uint64(i + 1), Payload: kib}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	b.ReportMetric(ratio("hybster_transport_sent_frames_total", "hybster_transport_writes_total"), "frames/write")
	b.ReportMetric(ratio("hybster_transport_recv_frames_total", "hybster_transport_reads_total"), "frames/read")
}
