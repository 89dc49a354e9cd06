package engine

import (
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/message"
)

// BenchmarkHotPathRoute measures a replica's whole inbound path,
// Host.route on the calling (transport) goroutine, for the three shapes
// of traffic: a client request checked and admitted to the sequencer, a
// 12-request PREPARE checked and put into a pillar mailbox, and a
// COMMIT, which carries nothing to check.
func BenchmarkHotPathRoute(b *testing.B) {
	h := newHostHarness(b)
	h.discard = true
	run := func(name string, from uint32, m message.Message) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.route(from, m)
			}
		})
	}
	run("request", crypto.ClientIDBase, h.batch(1, 1)[0])
	run("prepare12", 1, &message.Prepare{Order: 1, Requests: h.batch(1, 12)})
	run("commit", 1, &message.Commit{Order: 1})
}

// TestHotPathRouteAllocs pins what routing costs the allocator: a
// message with nothing to check allocates only the InMsg boxed into the
// mailbox's event type.
func TestHotPathRouteAllocs(t *testing.T) {
	h := newHostHarness(t)
	h.discard = true
	commit := &message.Commit{Order: 1}
	if n := testing.AllocsPerRun(1000, func() { h.route(1, commit) }); n > 1 {
		t.Errorf("routing a COMMIT allocates %.1f/op, want <= 1", n)
	}
}
