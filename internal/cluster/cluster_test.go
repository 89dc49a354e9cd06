package cluster_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/core"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/minbft"
	"hybster/internal/pbft"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
)

func counterApp() statemachine.Application { return counter.New() }

func TestAllProtocolFactories(t *testing.T) {
	cases := []struct {
		name  string
		proto config.Protocol
		boot  func(cluster.Options) (*cluster.Cluster, error)
	}{
		{"HybsterS", config.HybsterS, func(o cluster.Options) (*cluster.Cluster, error) {
			return cluster.Boot(o, counterApp)
		}},
		{"HybsterX", config.HybsterX, func(o cluster.Options) (*cluster.Cluster, error) {
			return cluster.Boot(o, counterApp)
		}},
		{"PBFTcop", config.PBFTcop, func(o cluster.Options) (*cluster.Cluster, error) {
			return cluster.Boot(o, counterApp)
		}},
		{"HybridPBFT", config.HybridPBFT, func(o cluster.Options) (*cluster.Cluster, error) {
			return cluster.Boot(o, counterApp)
		}},
		{"MinBFT", config.MinBFT, func(o cluster.Options) (*cluster.Cluster, error) {
			return cluster.Boot(o, counterApp)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.boot(cluster.Options{Config: config.Default(tc.proto)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			cl, err := c.NewClient(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			res, err := cl.Invoke([]byte{5}, false)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.BigEndian.Uint64(res); v != 5 {
				t.Fatalf("counter = %d", v)
			}
		})
	}
}

func TestFactoryTypesMatchProtocols(t *testing.T) {
	h, err := cluster.Boot(cluster.Options{Config: config.Default(config.HybsterX)}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	if _, ok := h.Replica(0).(*core.Engine); !ok {
		t.Fatalf("Hybster replica has type %T", h.Replica(0))
	}

	p, err := cluster.Boot(cluster.Options{Config: config.Default(config.PBFTcop)}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, ok := p.Replica(0).(*pbft.Engine); !ok {
		t.Fatalf("PBFT replica has type %T", p.Replica(0))
	}

	m, err := cluster.Boot(cluster.Options{Config: config.Default(config.MinBFT)}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if _, ok := m.Replica(0).(*minbft.Engine); !ok {
		t.Fatalf("MinBFT replica has type %T", m.Replica(0))
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default(config.HybsterX)
	cfg.N = 1
	if _, err := cluster.Boot(cluster.Options{Config: cfg}, counterApp); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCrashMarksReplica(t *testing.T) {
	c, err := cluster.Boot(cluster.Options{Config: config.Default(config.HybsterS)}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Replica(1) == nil {
		t.Fatal("replica 1 nil before crash")
	}
	c.Crash(1)
	c.Crash(1) // idempotent
	if c.Replica(1) != nil {
		t.Fatal("crashed replica still returned")
	}
}

func TestWaitExecuted(t *testing.T) {
	c, err := cluster.Boot(cluster.Options{Config: config.Default(config.HybsterS)}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Invoke([]byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitExecuted(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitExecuted(1_000_000, 50*time.Millisecond); err == nil {
		t.Fatal("WaitExecuted for unreachable order succeeded")
	}
}

func TestClientsGetDistinctIDs(t *testing.T) {
	c, err := cluster.Boot(cluster.Options{Config: config.Default(config.HybsterS)}, counterApp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	seen := map[uint32]bool{}
	for i := 0; i < 5; i++ {
		cl, err := c.NewClient(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if seen[cl.ID()] {
			t.Fatalf("duplicate client ID %d", cl.ID())
		}
		seen[cl.ID()] = true
		cl.Close()
	}
}

// TestTCPClusterEndToEnd deploys a full Hybster group over real TCP
// sockets — the cmd/hybster-replica path — and orders requests through
// it.
func TestTCPClusterEndToEnd(t *testing.T) {
	cfg := config.Default(config.HybsterX)
	cfg.Pillars = 2

	// Bind listeners first so every replica knows all addresses.
	eps := make([]*transport.TCPEndpoint, cfg.N)
	for i := range eps {
		ep, err := transport.NewTCP(uint32(i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	for i, ep := range eps {
		for j, other := range eps {
			if i != j {
				ep.AddPeer(uint32(j), other.Addr())
			}
		}
	}

	replicas := make([]*core.Engine, cfg.N)
	for i := range replicas {
		e, err := core.New(core.Options{
			Config:      cfg,
			ID:          uint32(i),
			Endpoint:    eps[i],
			Application: counter.New(),
			Platform:    enclave.NewPlatform(fmt.Sprintf("tcp-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = e
		e.Start()
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	clEp, err := transport.NewTCP(1<<16, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		clEp.AddPeer(uint32(i), ep.Addr())
	}
	cl, err := newTCPClient(cfg, clEp)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 1; i <= 10; i++ {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			t.Fatalf("op %d over TCP: %v", i, err)
		}
		if v := binary.BigEndian.Uint64(res); v != uint64(i) {
			t.Fatalf("op %d: counter = %d", i, v)
		}
	}
}

func newTCPClient(cfg config.Config, ep transport.Endpoint) (*client.Client, error) {
	return client.New(client.Options{Config: cfg, ID: crypto.ClientIDBase, Endpoint: ep, Timeout: 2 * time.Second})
}
