package minbft

import (
	"errors"
	"testing"

	"hybster/internal/apps/counter"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/transport"
	"hybster/internal/usig"
)

// TestZombieCounterRegressionRefused pins the restart-zombie guard of
// paper §4.4: a replica that crashes and rejoins with a fresh USIG
// re-issues counter values its peers already consumed. The guard must
// convict the sender on the first provably regressed UI (same counter,
// different message, valid MAC) and refuse all of its traffic from
// then on — instead of silently dropping it as a replay and letting
// the zombie believe it participates.
func TestZombieCounterRegressionRefused(t *testing.T) {
	cfg := config.Default(config.MinBFT)
	cfg.KeySeed = "zombie-test"
	key := crypto.NewKeyFromSeed(cfg.KeySeed)

	net := transport.NewNetwork(transport.LinkProfile{})
	eng, err := New(Options{
		Config:      cfg,
		ID:          0,
		Endpoint:    net.Endpoint(0),
		Application: counter.New(),
		Platform:    enclave.NewPlatform("zombie-detector"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Replica 1's first life: two commits signed by its USIG.
	life1 := usig.New(enclave.NewPlatform("zombie-life1"), 1, key, enclave.CostModel{})
	defer life1.Destroy()
	sign := func(u *usig.USIG, tag byte) *message.MinCommit {
		c := &message.MinCommit{View: 1, Replica: 1, BatchDigest: crypto.Hash([]byte{tag})}
		ui, err := u.CreateUI(c.Digest())
		if err != nil {
			t.Fatal(err)
		}
		c.UI = ui
		return c
	}
	c1 := sign(life1, 1)
	c2 := sign(life1, 2)
	eng.ingest(1, c1.UI, c1, false)
	eng.ingest(1, c2.UI, c2, false)
	if got := eng.expected[1]; got != 3 {
		t.Fatalf("expected counter after two accepts = %d; want 3", got)
	}

	// An exact replay is not a conviction: reliable-channel
	// retransmission re-presents accepted messages all the time.
	eng.ingest(1, c1.UI, c1, false)
	if err := eng.ZombieErr(1); err != nil {
		t.Fatalf("replay convicted a correct sender: %v", err)
	}

	// Second life: fresh platform, counter restarts at 1, signs a
	// DIFFERENT message under the consumed value — the regression.
	life2 := usig.New(enclave.NewPlatform("zombie-life2"), 1, key, enclave.CostModel{})
	defer life2.Destroy()
	z := sign(life2, 9)
	if z.UI.Counter != 1 {
		t.Fatalf("fresh USIG counter = %d; want 1", z.UI.Counter)
	}
	eng.ingest(1, z.UI, z, false)

	if err := eng.ZombieErr(1); !errors.Is(err, ErrCounterRegression) {
		t.Fatalf("ZombieErr = %v; want ErrCounterRegression", err)
	}
	if got := eng.Zombies(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Zombies() = %v; want [1]", got)
	}

	// Everything further from the zombie is refused, even messages that
	// would otherwise be in sequence.
	c3 := sign(life2, 3) // counter 2
	c4 := sign(life2, 4) // counter 3
	eng.ingest(1, c3.UI, c3, false)
	eng.ingest(1, c4.UI, c4, false)
	if got := eng.expected[1]; got != 3 {
		t.Fatalf("zombie traffic advanced the counter stream: expected = %d; want 3", got)
	}

	// A forged MAC under an old counter must NOT convict: only a
	// cryptographically valid UI is proof of regression.
	r2 := usig.New(enclave.NewPlatform("zombie-r2"), 2, key, enclave.CostModel{})
	defer r2.Destroy()
	good := &message.MinCommit{View: 1, Replica: 2, BatchDigest: crypto.Hash([]byte{7})}
	ui, err := r2.CreateUI(good.Digest())
	if err != nil {
		t.Fatal(err)
	}
	good.UI = ui
	eng.ingest(2, good.UI, good, false)
	forged := &message.MinCommit{View: 1, Replica: 2, BatchDigest: crypto.Hash([]byte{8})}
	forged.UI = usig.UI{Issuer: 2, Counter: 1, MAC: crypto.MAC{0xde, 0xad}}
	eng.ingest(2, forged.UI, forged, false)
	if err := eng.ZombieErr(2); err != nil {
		t.Fatalf("forged MAC convicted replica 2: %v", err)
	}
}

// TestCorruptedCopyCannotFrameSender pins the ingest-order half of the
// zombie guard: a link-corrupted copy of a message must neither burn
// its counter slot (the genuine retransmission would then be dropped
// as a replay) nor plant its mangled MAC in the seen ring — otherwise
// the genuine copy, arriving later with a MAC that differs and
// verifies, would convict the honest sender of counter regression.
// Two honest survivors framing each other this way is a permanent
// liveness wedge: conviction refuses all traffic, view changes
// included.
func TestCorruptedCopyCannotFrameSender(t *testing.T) {
	cfg := config.Default(config.MinBFT)
	cfg.KeySeed = "frame-test"
	key := crypto.NewKeyFromSeed(cfg.KeySeed)

	net := transport.NewNetwork(transport.LinkProfile{})
	eng, err := New(Options{
		Config:      cfg,
		ID:          0,
		Endpoint:    net.Endpoint(0),
		Application: counter.New(),
		Platform:    enclave.NewPlatform("frame-detector"),
	})
	if err != nil {
		t.Fatal(err)
	}

	peer := usig.New(enclave.NewPlatform("frame-peer"), 1, key, enclave.CostModel{})
	defer peer.Destroy()
	genuine := &message.MinCommit{View: 1, Replica: 1, BatchDigest: crypto.Hash([]byte{1})}
	ui, err := peer.CreateUI(genuine.Digest())
	if err != nil {
		t.Fatal(err)
	}
	genuine.UI = ui

	// The corrupted copy arrives first: same counter, mangled MAC.
	mangled := *genuine
	mangled.UI.MAC[0] ^= 0xff
	eng.ingest(1, mangled.UI, &mangled, false)
	if got := eng.expected[1]; got != 1 {
		t.Fatalf("corrupted copy consumed counter slot: expected = %d; want 1", got)
	}

	// The genuine retransmission must process normally and must not
	// convict the sender, even though its MAC differs from the copy's.
	eng.ingest(1, genuine.UI, genuine, false)
	if err := eng.ZombieErr(1); err != nil {
		t.Fatalf("genuine retransmission convicted its own sender: %v", err)
	}
	if got := eng.expected[1]; got != 2 {
		t.Fatalf("genuine copy was not processed: expected = %d; want 2", got)
	}
}
