package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/reply"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
)

// logApp is a replicated service that records the payloads it executed,
// in order; its snapshot is that log.
type logApp struct {
	mu  sync.Mutex
	log []string
}

func (a *logApp) Execute(_ uint32, payload []byte, _ bool) []byte {
	a.mu.Lock()
	a.log = append(a.log, string(payload))
	a.mu.Unlock()
	return payload
}

func (a *logApp) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return []byte(fmt.Sprint(a.log))
}

func (a *logApp) Restore(s []byte) error {
	a.mu.Lock()
	a.log = []string{"restored:" + string(s)}
	a.mu.Unlock()
	return nil
}

func (a *logApp) executed() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.log...)
}

// execHarness is an ExecLoop wired to recording hooks — no engine.
type execHarness struct {
	*ExecLoop
	app *logApp

	mu       sync.Mutex
	credits  []string // "reqs@lastExecuted"
	ckpts    []timeline.Order
	progress []bool
}

func newExecHarness(t *testing.T, interval timeline.Order) *execHarness {
	t.Helper()
	cfg := config.Default(config.HybsterS)
	cfg.CheckpointInterval = interval
	h := &execHarness{app: &logApp{}}
	ks := crypto.NewKeyStore(0, crypto.NewKeyFromSeed("exec-test"))
	replies := reply.NewStage(0, ks, &fakeEndpoint{}, 1, nil)
	h.ExecLoop = newExecLoop(statemachine.NewExecutor(h.app), cfg, newMetrics(nil, "test"), replies,
		func(reqs int) {
			h.mu.Lock()
			h.credits = append(h.credits, fmt.Sprintf("%d@%d", reqs, h.LastExecuted()))
			h.mu.Unlock()
		},
		func(v *statemachine.CheckpointView) {
			h.mu.Lock()
			h.ckpts = append(h.ckpts, v.Order)
			h.mu.Unlock()
		},
		func(pending bool) {
			h.mu.Lock()
			h.progress = append(h.progress, pending)
			h.mu.Unlock()
		})
	done := make(chan struct{})
	go func() { defer close(done); h.run() }()
	t.Cleanup(func() {
		h.close()
		<-done
		replies.Close()
	})
	return h
}

// instance builds a one-request batch whose payload names its order.
func instance(o timeline.Order) []*message.Request {
	return []*message.Request{{Client: crypto.ClientIDBase + uint32(o), Seq: 1, Payload: []byte(fmt.Sprint("op", o))}}
}

// waitExecuted waits until the loop executed order o.
func (h *execHarness) waitExecuted(t *testing.T, o timeline.Order) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); h.LastExecuted() < o; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("executed %d, want %d", h.LastExecuted(), o)
		}
	}
}

func TestExecLoopDeliversInOrder(t *testing.T) {
	h := newExecHarness(t, 100)
	for _, o := range []timeline.Order{3, 2, 4, 1} {
		h.Deliver(o, instance(o), false)
	}
	h.waitExecuted(t, 4)
	got := h.app.executed()
	want := []string{"op1", "op2", "op3", "op4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	// The notification follows the drain; a later install returns only
	// after the loop got past it.
	if err := h.install(1, nil, nil, nil); err == nil {
		t.Fatal("backwards install accepted")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Nothing could run until order 1 arrived; that one drain emptied
	// the buffer.
	if len(h.progress) != 1 || h.progress[0] {
		t.Fatalf("progress notifications %v, want one with nothing pending", h.progress)
	}
	if len(h.credits) != 0 {
		t.Fatalf("foreign instances returned credits: %v", h.credits)
	}
}

// The flow-control slot goes back when the instance is dequeued, even
// though it cannot be delivered yet.
func TestExecLoopCreditsAtDequeue(t *testing.T) {
	h := newExecHarness(t, 100)
	h.Deliver(2, instance(2), true) // order 1 is missing: buffered, not delivered
	h.Deliver(1, instance(1), false)
	h.waitExecuted(t, 2)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.credits) != 1 || h.credits[0] != "1@0" {
		t.Fatalf("credits %v, want the own instance's slot back (1 request) while nothing had executed", h.credits)
	}
}

func TestExecLoopInstallResumesBufferedSuccessors(t *testing.T) {
	// The state to transfer: another replica's execution up to order 5.
	donor := statemachine.NewExecutor(&logApp{})
	for o := timeline.Order(1); o <= 5; o++ {
		donor.Submit(o, instance(o))
	}

	h := newExecHarness(t, 100)
	h.Deliver(6, instance(6), false)
	h.Deliver(7, instance(7), false)
	h.Deliver(9, instance(9), false) // stays buffered: 8 is missing
	if err := h.install(5, donor.Snapshot(), donor.ReplyVector(), nil); err != nil {
		t.Fatal(err)
	}
	// install returns after the drain, so the successors already ran.
	if got := h.LastExecuted(); got != 7 {
		t.Fatalf("executed %d after install, want 7", got)
	}
	got := h.app.executed()
	if len(got) != 3 || got[1] != "op6" || got[2] != "op7" {
		t.Fatalf("application saw %v, want the restored state then op6, op7", got)
	}
	h.mu.Lock()
	if n := len(h.progress); n == 0 || !h.progress[n-1] {
		t.Fatalf("progress notifications %v, want the last to report order 9 still pending", h.progress)
	}
	h.mu.Unlock()
	// State behind the executor is refused and reported.
	if err := h.install(3, donor.Snapshot(), donor.ReplyVector(), nil); err == nil {
		t.Fatal("backwards install accepted")
	}
}

func TestExecLoopCheckpointsExactlyAtBoundaries(t *testing.T) {
	h := newExecHarness(t, 3)
	// Delivered in one contiguous burst, so a single drain crosses two
	// boundaries.
	for o := timeline.Order(7); o >= 1; o-- {
		h.Deliver(o, instance(o), false)
	}
	h.waitExecuted(t, 7)
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.ckpts) != "[3 6]" {
		t.Fatalf("checkpoint boundaries posted at %v, want [3 6]", h.ckpts)
	}
}
