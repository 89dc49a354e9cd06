package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"hybster/internal/cop"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/timeline"
	"hybster/internal/transport"
	"hybster/internal/trinx"
	"hybster/internal/wal"
)

// The probe section times public functions of single layers alone, on
// one goroutine, with the workload's message shape. Multiplied by the
// calls per operation the counters report, the results become the
// per-layer CPU budget (layers.go).

// probeFor is how long each probe repeats its call.
const probeFor = 150 * time.Millisecond

// timeCalls repeats fn for about probeFor and returns the microseconds
// one call took. fn receives the iteration number.
func timeCalls(fn func(i int)) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < probeFor {
		for k := 0; k < 16; k++ {
			fn(n)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n) / 1e3
}

// nullSender is a reply.Sender that drops replies.
type nullSender struct{}

func (nullSender) Send(uint32, message.Message) error { return nil }

// probeBatch builds a proposal-sized batch of authenticated requests.
func probeBatch(ks *crypto.KeyStore, n, payload int) []*message.Request {
	reqs := make([]*message.Request, batchSize)
	for i := range reqs {
		r := &message.Request{Client: crypto.ClientIDBase + uint32(i), Seq: 1, Payload: make([]byte, payload)}
		r.Auth = crypto.NewAuthenticator(ks, r.Digest(), n)
		reqs[i] = r
	}
	return reqs
}

// runProbes returns the probe.* metrics for workload w and the wire
// size of the proposal the codec probes used.
func runProbes(w *workload, scratch string) (probes map[string]float64, prepareBytes int, err error) {
	cfg := w.config()
	out := make(map[string]float64)
	key := crypto.NewKeyFromSeed(cfg.KeySeed)
	clientKS := crypto.NewKeyStore(crypto.ClientIDBase, key)
	payload := make([]byte, w.payload)

	// trinx: certify and verify a batch digest, enclave cost included.
	platform := enclave.NewPlatform("probe")
	tx := trinx.New(platform, trinx.MakeInstanceID(0, 0), 2, key, enclave.DefaultCostModel)
	defer tx.Destroy()
	digest := crypto.Hash([]byte("probe"))
	var cert trinx.Certificate
	var probeErr error
	out["probe.trinx.create_us"] = timeCalls(func(i int) {
		c, err := tx.CreateContinuing(0, uint64(i+1), digest)
		if err != nil {
			probeErr = err
		}
		cert = c
	})
	out["probe.trinx.verify_us"] = timeCalls(func(int) {
		if err := tx.Verify(cert, digest); err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return nil, 0, fmt.Errorf("benchmark: trinx probe: %w", probeErr)
	}

	// crypto: what a client pays to certify one request.
	out["probe.crypto.digest_us"] = timeCalls(func(i int) {
		r := message.Request{Client: crypto.ClientIDBase, Seq: uint64(i), Payload: payload}
		_ = r.Digest()
	})
	out["probe.crypto.authenticator_us"] = timeCalls(func(int) {
		_ = crypto.NewAuthenticator(clientKS, digest, cfg.N)
	})

	// message: a full proposal through the codec.
	prep := &message.Prepare{View: 1, Order: 1, Requests: probeBatch(clientKS, cfg.N, w.payload)}
	var wire []byte
	out["probe.message.marshal_prepare_us"] = timeCalls(func(int) { wire = message.Marshal(prep) })
	out["probe.message.unmarshal_prepare_us"] = timeCalls(func(int) {
		if _, err := message.Unmarshal(wire); err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return nil, 0, fmt.Errorf("benchmark: codec probe: %w", probeErr)
	}

	// reply: MAC and hand-off of one reply on the inline path.
	stage := reply.NewStage(0, crypto.NewKeyStore(0, key), nullSender{}, 1, nil)
	out["probe.reply.submit_us"] = timeCalls(func(i int) {
		stage.SubmitInline(crypto.ClientIDBase, uint64(i), payload)
	})
	stage.Close()

	// cop: one event through a mailbox.
	mb := cop.NewMailbox[int]()
	out["probe.cop.mailbox_us"] = timeCalls(func(i int) {
		mb.Put(i)
		_, _ = mb.Get()
	})
	mb.Close()

	// wal: append one decision (fsyncs are batched in the background).
	dir, err := os.MkdirTemp(scratch, "probe-wal-")
	if err != nil {
		return nil, 0, fmt.Errorf("benchmark: wal probe: %w", err)
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("benchmark: wal probe: %w", err)
	}
	out["probe.wal.append_us"] = timeCalls(func(i int) {
		if err := log.AppendDecision(&wal.DecisionRec{View: 1, Order: timeline.Order(i + 1), Requests: prep.Requests}); err != nil {
			probeErr = err
		}
	})
	if err := log.Close(); err != nil && probeErr == nil {
		probeErr = err
	}
	if probeErr != nil {
		return nil, 0, fmt.Errorf("benchmark: wal probe: %w", probeErr)
	}

	if out["probe.tcp.frame_us"], err = probeTCPFrame(); err != nil {
		return nil, 0, err
	}
	return out, len(wire), nil
}

// probeTCPFrame streams small frames (COMMITs) between two loopback
// endpoints and returns the process CPU microseconds one frame costs,
// sender and receiver sides together. CPU rather than wall time: the
// two sides overlap on two cores, and the wait for a burst to arrive
// sleeps on a 1.1 ms timer.
func probeTCPFrame() (float64, error) {
	a, err := transport.NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		return 0, fmt.Errorf("benchmark: tcp probe: %w", err)
	}
	defer a.Close()
	b, err := transport.NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		return 0, fmt.Errorf("benchmark: tcp probe: %w", err)
	}
	defer b.Close()
	a.AddPeer(1, b.Addr())
	var got atomic.Int64
	b.Handle(func(uint32, message.Message) { got.Add(1) })
	a.Handle(func(uint32, message.Message) {})
	msg := &message.Commit{View: 1, Order: 1}

	// Bursts smaller than the per-peer queue: an overflowing queue
	// drops its oldest frame and the count would never arrive.
	const burst = 1024
	sent := int64(0)
	start, cpuStart := time.Now(), processCPU()
	for time.Since(start) < probeFor {
		for i := 0; i < burst; i++ {
			if err := a.Send(1, msg); err != nil {
				return 0, fmt.Errorf("benchmark: tcp probe: %w", err)
			}
		}
		sent += burst
		for deadline := time.Now().Add(5 * time.Second); got.Load() < sent; {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("benchmark: tcp probe: %d of %d frames arrived", got.Load(), sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return float64((processCPU() - cpuStart).Nanoseconds()) / float64(sent) / 1e3, nil
}
