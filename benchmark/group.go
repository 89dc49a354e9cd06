package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hybster/benchmark/trace"
	"hybster/internal/apps/echo"
	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/core"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/pbft"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// group is one replica group with its clients attached: what a
// workload runs against. Everything in it is assembled from the
// program's public functions.
type group struct {
	w    *workload
	cfg  config.Config
	seed int64

	mem *cluster.Cluster // memnet workloads
	tcp *tcpGroup        // tcp workload

	s       *seams        // nil when untraced
	marks   []*chainMarks // nil when the application is not wrapped
	dataDir string        // removed by stop; "" when volatile

	clients  []*invoker
	payloads [][]byte // seed-derived request payloads, cycled per client
	acked    uint64   // correct replies outside the generator (setup)
}

// tcpGroup is a replica group on loopback TCP endpoints, assembled by
// hand the way cmd/hybster-replica and tcp_cluster_test.go do.
type tcpGroup struct {
	addrs   []string
	eps     []*transport.TCPEndpoint
	engines []cluster.Replica
	telems  []*telemetry.Telemetry
}

// payloadsPerClient distinct payloads cycle through each client; with a
// 1 KiB payload that is enough that no two requests in flight share
// bytes while staying in cache like a real client's buffer would.
const payloadsPerClient = 8

// buildGroup boots the workload's cluster, attaches its clients and has
// every client commit one request. rec enables the traced seams; a nil
// rec builds the group exactly as a user of the packages would, with no
// benchmark code between the layers (except on failover-durable, whose
// application is always wrapped for the agreement check).
func buildGroup(w *workload, seed int64, rec *trace.Recorder, scratch string) (*group, error) {
	g := &group{w: w, cfg: w.config(), seed: seed}
	if rec != nil {
		g.s = newSeams(rec, g.cfg.N, g.cfg.F(), w.clients)
	}
	if rec != nil || w.failover {
		g.marks = make([]*chainMarks, g.cfg.N)
		for r := range g.marks {
			g.marks[r] = &chainMarks{at: make(map[uint64]uint64)}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	g.payloads = make([][]byte, w.clients*payloadsPerClient)
	for i := range g.payloads {
		g.payloads[i] = make([]byte, w.payload)
		rng.Read(g.payloads[i])
	}

	var err error
	if w.tcp {
		err = g.bootTCP()
	} else {
		err = g.bootMem(scratch)
	}
	if err == nil {
		err = g.attachClients()
	}
	if err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// newApp is the replicated service of replica id: an echo of the
// request payload, so that every reply can be checked byte for byte.
func (g *group) newApp(id uint32) statemachine.Application {
	app := statemachine.Application(echo.New(-1))
	if g.marks != nil {
		app = newChainApp(app, g.marks[id], g.s, id)
	}
	return app
}

// newReplica builds one engine; it is the cluster.Factory of the
// memnet groups and is called directly for the TCP group.
func (g *group) newReplica(cfg config.Config, id uint32, ep transport.Endpoint, env cluster.NodeEnv) (cluster.Replica, error) {
	switch cfg.Protocol {
	case config.HybsterS, config.HybsterX:
		return core.New(core.Options{
			Config: cfg, ID: id, Endpoint: ep, Application: g.newApp(id),
			Platform: env.Platform, EnclaveCost: enclave.DefaultCostModel,
			Telemetry: env.Telemetry, DataDir: env.DataDir,
		})
	case config.PBFTcop, config.HybridPBFT:
		return pbft.New(pbft.Options{
			Config: cfg, ID: id, Endpoint: ep, Application: g.newApp(id),
			Platform: env.Platform, EnclaveCost: enclave.DefaultCostModel,
			Telemetry: env.Telemetry,
		})
	default:
		return nil, fmt.Errorf("benchmark: no engine for %v", cfg.Protocol)
	}
}

func (g *group) bootMem(scratch string) error {
	opts := cluster.Options{Config: g.cfg, Seed: g.seed, EnclaveCost: enclave.DefaultCostModel}
	if g.w.failover {
		dir, err := os.MkdirTemp(scratch, "data-")
		if err != nil {
			return fmt.Errorf("benchmark: data root: %w", err)
		}
		g.dataDir = dir
		opts.DataRoot = dir
	}
	var wrapErr error
	if g.s != nil {
		opts.WrapEndpoint = func(_ uint32, ep transport.Endpoint) transport.Endpoint {
			wrapped, err := g.s.wrapEndpoint(ep, false)
			if err != nil {
				wrapErr = err
				return ep
			}
			return wrapped
		}
	}
	c, err := cluster.New(opts, g.newReplica)
	if err != nil {
		return err
	}
	g.mem = c
	return wrapErr
}

func (g *group) bootTCP() error {
	t := &tcpGroup{}
	g.tcp = t
	n := g.cfg.N
	// Listen on :0 first so every peer map can name real ports.
	for i := 0; i < n; i++ {
		tel := telemetry.NewFor(g.cfg.Protocol.String(), uint32(i))
		ep, err := transport.NewTCPWithOptions(uint32(i), "127.0.0.1:0", nil, transport.TCPOptions{Telemetry: tel})
		if err != nil {
			return err
		}
		t.eps = append(t.eps, ep)
		t.telems = append(t.telems, tel)
		t.addrs = append(t.addrs, ep.Addr())
	}
	for i, ep := range t.eps {
		for j, addr := range t.addrs {
			if j != i {
				ep.AddPeer(uint32(j), addr)
			}
		}
	}
	for i, tcpEp := range t.eps {
		id := uint32(i)
		ep := transport.Endpoint(tcpEp)
		if g.s != nil {
			var err error
			if ep, err = g.s.wrapEndpoint(ep, false); err != nil {
				return err
			}
		}
		eng, err := g.newReplica(g.cfg, id, ep, cluster.NodeEnv{
			Platform: enclave.NewPlatform(fmt.Sprintf("replica-%d", id)), Telemetry: t.telems[i],
		})
		if err != nil {
			return err
		}
		t.engines = append(t.engines, eng)
		eng.Start()
	}
	return nil
}

// clientEndpoint attaches client id to the group's network.
func (g *group) clientEndpoint(id uint32) (transport.Endpoint, error) {
	if g.tcp == nil {
		return g.mem.Net.Endpoint(id), nil
	}
	ep, err := transport.NewTCP(id, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	for j, addr := range g.tcp.addrs {
		ep.AddPeer(uint32(j), addr)
	}
	return ep, nil
}

func (g *group) attachClients() error {
	timeout, retries := quietClientTimeout, 0
	switch {
	case g.w.failover:
		timeout, retries = failoverClientTimeout, failoverRetries
	case g.w.tcp:
		timeout = tcpClientTimeout
	}
	for i := 0; i < g.w.clients; i++ {
		id := crypto.ClientIDBase + uint32(i)
		ep, err := g.clientEndpoint(id)
		if err != nil {
			return err
		}
		var rec *trace.Recorder
		if g.s != nil {
			rec = g.s.rec
			if ep, err = g.s.wrapEndpoint(ep, true); err != nil {
				return err
			}
		}
		cl, err := client.New(client.Options{Config: g.cfg, ID: id, Endpoint: ep, Timeout: timeout, Retries: retries})
		if err != nil {
			return err
		}
		g.clients = append(g.clients, &invoker{cl: cl, rec: rec})
	}
	// Every client commits one request, all at once: on TCP a client's
	// first request always costs one client timeout (the replicas it did
	// not address learn its reply path only from the retransmission).
	errs := make(chan error, len(g.clients))
	for c := range g.clients {
		go func(c int) { errs <- g.op(c, 0) }(c)
	}
	var first error
	for range g.clients {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("benchmark: first request of a client: %w", err)
		}
	}
	g.acked += uint64(len(g.clients))
	return first
}

// op is the load generators' operation: client c echoes its n-th
// payload and checks the reply byte for byte.
func (g *group) op(c int, n uint64) error {
	payload := g.payloads[c*payloadsPerClient+int(n%payloadsPerClient)]
	res, err := g.clients[c].invoke(payload)
	if err != nil {
		return err
	}
	if !bytes.Equal(res, payload) {
		return fmt.Errorf("client %d request %d: reply of %d bytes does not echo the %d-byte request", c, n, len(res), len(payload))
	}
	return nil
}

// snapshot sums every telemetry series across the replicas.
func (g *group) snapshot() map[string]float64 {
	if g.mem != nil {
		return g.mem.TelemetrySnapshot()
	}
	out := make(map[string]float64)
	for _, t := range g.tcp.telems {
		for name, v := range t.Metrics().Snapshot() {
			out[name] += v
		}
	}
	return out
}

// stop closes the clients and shuts every replica down.
func (g *group) stop() {
	for _, iv := range g.clients {
		iv.cl.Close()
	}
	if g.mem != nil {
		g.mem.Stop()
	}
	if t := g.tcp; t != nil {
		for _, eng := range t.engines {
			eng.Stop()
		}
		for _, ep := range t.eps {
			_ = ep.Close() // Engine.Stop closed it already; harmless twice
		}
	}
	if g.dataDir != "" {
		_ = os.RemoveAll(g.dataDir) // scratch; the next run makes its own
	}
}

// leader returns the replica leading the highest view any live replica
// reports through the *_core_view gauge.
func (g *group) leader() uint32 {
	var view float64
	for id := uint32(0); int(id) < g.cfg.N; id++ {
		if g.mem.Replica(id) == nil {
			continue
		}
		if v := g.mem.MetricValue(id, "hybster_core_view"); v > view {
			view = v
		}
	}
	return g.cfg.LeaderOf(timeline.View(uint64(view)))
}

// waitRejoined polls until replica id has executed to within one
// checkpoint interval of the most advanced replica, or the deadline
// passes; it returns how long that took.
func (g *group) waitRejoined(id uint32, deadline time.Duration) (time.Duration, bool) {
	start := time.Now()
	for time.Since(start) < deadline {
		var most, own uint64
		for r := uint32(0); int(r) < g.cfg.N; r++ {
			rep := g.mem.Replica(r)
			if rep == nil {
				continue
			}
			le := uint64(rep.LastExecuted())
			if r == id {
				own = le
			}
			if le > most {
				most = le
			}
		}
		if own+uint64(g.cfg.CheckpointInterval) >= most {
			return time.Since(start), true
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), false
}
