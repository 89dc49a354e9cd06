package minbft

import (
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine"
	"hybster/internal/message"
	"hybster/internal/transport"
)

// TestReadyzDetectsWedgedReplica pins /readyz's meaning for MinBFT:
// live, and not holding admitted work without execution progress for
// more than twice the view-change timeout. The leader runs alone in
// its group, so its proposal never gathers a commit quorum; MinBFT has
// no injected clock, so the timeout is short and real.
func TestReadyzDetectsWedgedReplica(t *testing.T) {
	cfg := config.Default(config.MinBFT)
	cfg.ViewChangeTimeout = 25 * time.Millisecond
	net := transport.NewNetwork(transport.LinkProfile{})
	t.Cleanup(net.Close)
	e, err := New(Options{
		Config: cfg, ID: 0, Endpoint: net.Endpoint(0), Application: counter.New(),
		Platform: enclave.NewPlatform("readyz"),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	if err := e.Readyz(); err != nil {
		t.Fatalf("idle replica not ready: %v", err)
	}
	req := &message.Request{Client: crypto.ClientIDBase, Seq: 1, Payload: []byte("x")}
	e.CoordBox.Put(engine.InMsg{From: crypto.ClientIDBase, Msg: req, Verified: true})

	// The suspicion clock restarts on every timeout; the readiness
	// marker must not, or a wedged replica would look ready forever.
	for deadline := time.Now().Add(5 * time.Second); e.Readyz() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replica holding unexecutable work past 2x the view-change timeout reports ready")
		}
	}
	if err := e.Healthz(); err != nil {
		t.Fatalf("wedged replica reported dead: %v", err)
	}
	time.Sleep(4 * cfg.ViewChangeTimeout)
	if e.Readyz() == nil {
		t.Fatal("suspicion timeouts made the wedged replica ready again")
	}

	// Execution progress (here: the instance arriving committed) clears it.
	e.Exec.Deliver(1, []*message.Request{req}, false)
	for deadline := time.Now().Add(5 * time.Second); e.Readyz() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not ready again after progress: %v", e.Readyz())
		}
	}

	e.Stop()
	if e.Healthz() == nil || e.Readyz() == nil {
		t.Fatal("stopped engine reports live or ready")
	}
}
