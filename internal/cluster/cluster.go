// Package cluster boots complete in-process replica groups — engines,
// simulated network, clients — for integration tests, examples, and
// the benchmark harness. It also provides fault injection: crashing
// replicas, partitioning the network, and healing it again.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hybster/internal/client"
	"hybster/internal/config"
	"hybster/internal/core"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/engine"
	"hybster/internal/minbft"
	"hybster/internal/pbft"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// Replica is the surface the harness needs from any protocol engine.
type Replica interface {
	Start()
	Stop()
	ID() uint32
	LastExecuted() timeline.Order
}

// Killer is the optional crash-stop surface of an engine: Kill tears
// the replica down WITHOUT the graceful-shutdown durability work (no
// exact-counter seal, no WAL flush), leaving its disk exactly as
// kill -9 would. Engines without it are simply Stop'd — for volatile
// engines the two are equivalent.
type Killer interface {
	Kill()
}

// NodeEnv is the per-replica "machine" a factory builds an engine on:
// the enclave platform (the CPU and its trusted hardware — it survives
// every restart) and the data directory (the disk — it survives a cold
// restart but not amnesia). DataDir is empty when the cluster runs
// volatile (no Options.DataRoot).
type NodeEnv struct {
	Platform *enclave.Platform
	DataDir  string
	// Telemetry is the replica's metrics registry and tracer. Like the
	// platform it survives Restart: idempotent metric registration keeps
	// counters continuous across engine generations, and gauge callbacks
	// are swapped to the new engine's state.
	Telemetry *telemetry.Telemetry
}

// Factory builds one replica engine attached to the given endpoint and
// machine environment.
type Factory func(cfg config.Config, id uint32, ep transport.Endpoint, env NodeEnv) (Replica, error)

// Cluster is one in-process replica group.
type Cluster struct {
	Cfg config.Config
	Net *transport.Network

	factory   Factory
	wrap      func(id uint32, ep transport.Endpoint) transport.Endpoint
	platforms []*enclave.Platform
	telems    []*telemetry.Telemetry
	dataDirs  []string // per replica; empty = volatile
	replicas  []Replica
	crashed   []bool
	zombie    []bool

	nextClient uint32
}

// Options configure a cluster.
type Options struct {
	Config config.Config
	// Profile is the simulated network profile (zero = ideal network).
	Profile transport.LinkProfile
	// Seed is unread; benchmark/group.go sets it (ROADMAP 11(c)).
	Seed int64
	// EnclaveCost is the SGX cost model for all replicas.
	EnclaveCost enclave.CostModel
	// WrapEndpoint, when set, decorates every replica endpoint before
	// it is handed to the factory (fault injection hooks in here).
	// Client endpoints are not wrapped.
	WrapEndpoint func(id uint32, ep transport.Endpoint) transport.Endpoint
	// DataRoot, when set, gives every replica a persistent data
	// directory (DataRoot/replica-<id>) that survives Restart — a cold
	// restart recovers sealed counters and the write-ahead log from it.
	// Empty means volatile replicas (the pre-durability behavior).
	DataRoot string
}

// New boots a cluster with replicas produced by factory.
func New(opts Options, factory Factory) (*Cluster, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Cfg:        opts.Config,
		Net:        transport.NewNetwork(opts.Profile),
		factory:    factory,
		wrap:       opts.WrapEndpoint,
		platforms:  make([]*enclave.Platform, opts.Config.N),
		telems:     make([]*telemetry.Telemetry, opts.Config.N),
		dataDirs:   make([]string, opts.Config.N),
		replicas:   make([]Replica, opts.Config.N),
		crashed:    make([]bool, opts.Config.N),
		zombie:     make([]bool, opts.Config.N),
		nextClient: crypto.ClientIDBase,
	}
	for id := uint32(0); int(id) < opts.Config.N; id++ {
		ep := c.endpoint(id)
		platform := enclave.NewPlatform(fmt.Sprintf("replica-%d", id))
		c.platforms[id] = platform
		c.telems[id] = telemetry.NewFor(opts.Config.Protocol.String(), id)
		if opts.DataRoot != "" {
			dir := filepath.Join(opts.DataRoot, fmt.Sprintf("replica-%d", id))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				c.Stop()
				return nil, fmt.Errorf("cluster: data dir for replica %d: %w", id, err)
			}
			c.dataDirs[id] = dir
		}
		r, err := factory(opts.Config, id, ep, c.env(id))
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.replicas[id] = r
	}
	for _, r := range c.replicas {
		r.Start()
	}
	return c, nil
}

// endpoint registers replica id on the network, applying the optional
// wrapper.
func (c *Cluster) endpoint(id uint32) transport.Endpoint {
	ep := c.Net.Endpoint(id)
	if c.wrap != nil {
		ep = c.wrap(id, ep)
	}
	return ep
}

// env assembles replica id's machine environment.
func (c *Cluster) env(id uint32) NodeEnv {
	return NodeEnv{Platform: c.platforms[id], DataDir: c.dataDirs[id], Telemetry: c.telems[id]}
}

// DataDir returns replica id's data directory ("" when volatile).
func (c *Cluster) DataDir(id uint32) string { return c.dataDirs[id] }

// Telemetry returns replica id's telemetry bundle. It is valid even
// while the replica is crashed (counters freeze at their last values),
// which lets tests assert on internal state post-mortem.
func (c *Cluster) Telemetry(id uint32) *telemetry.Telemetry { return c.telems[id] }

// MetricValue reads one metric series from replica id by its full
// exposition name, e.g. `hybster_core_retransmits_total{pillar="0"}`
// (histograms yield their observation count; unregistered series read
// as 0).
func (c *Cluster) MetricValue(id uint32, fullName string) float64 {
	return c.telems[id].Metrics().Value(fullName)
}

// TelemetrySnapshot sums every metric series across all replicas into
// one cluster-wide map (histograms contribute their observation
// counts). Benchmarks attach it to result points; per-replica views
// stay available through Telemetry(id).
func (c *Cluster) TelemetrySnapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, t := range c.telems {
		for name, v := range t.Metrics().Snapshot() {
			out[name] += v
		}
	}
	return out
}

// MetricSum sums every series whose exposition name starts with one of
// the prefixes over all replicas, e.g. "hybster_trinx_ecalls_total" for
// the group's ECALLs of every operation and pillar.
func (c *Cluster) MetricSum(prefixes ...string) float64 {
	var sum float64
	for name, v := range c.TelemetrySnapshot() {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				sum += v
				break
			}
		}
	}
	return sum
}

// Engine is what NewEngine builds: a Replica with the health probes and
// the standing of the engine.Host every protocol engine embeds.
type Engine interface {
	Replica
	Healthz() error
	Readyz() error
	Standing() engine.Standing
}

// NewEngine builds the engine cfg.Protocol names for replica id on
// machine env, running app. It is the one place outside benchmark/ that
// maps a protocol to its engine. Every engine is given the machine's
// data directory; MinBFT's refuses a non-empty one.
func NewEngine(cfg config.Config, id uint32, ep transport.Endpoint, env NodeEnv,
	app statemachine.Application, cost enclave.CostModel) (Engine, error) {

	o := engine.Options{
		Config: cfg, ID: id, Endpoint: ep, Application: app,
		Platform: env.Platform, EnclaveCost: cost, Telemetry: env.Telemetry,
		DataDir: env.DataDir,
	}
	switch cfg.Protocol {
	case config.MinBFT:
		return minbft.New(o)
	case config.PBFTcop, config.HybridPBFT:
		return pbft.New(o)
	default:
		return core.New(o)
	}
}

// Boot boots a cluster of the protocol opts.Config.Protocol names,
// running the applications produced by newApp.
func Boot(opts Options, newApp func() statemachine.Application) (*Cluster, error) {
	return New(opts, func(cfg config.Config, id uint32, ep transport.Endpoint, env NodeEnv) (Replica, error) {
		return NewEngine(cfg, id, ep, env, newApp(), opts.EnclaveCost)
	})
}

// Replica returns replica id (nil if crashed).
func (c *Cluster) Replica(id uint32) Replica {
	if c.crashed[id] {
		return nil
	}
	return c.replicas[id]
}

// Standing returns where replica id stands; nil when it is down or its
// engine has no engine.Host.
func (c *Cluster) Standing(id uint32) *engine.Standing {
	if r, ok := c.Replica(id).(interface{ Standing() engine.Standing }); ok {
		s := r.Standing()
		return &s
	}
	return nil
}

// Standings says where every replica stands, one clause each: `r1
// view=0 exec=212 …`, `r1 down` or `r1 zombie`.
func (c *Cluster) Standings() string {
	b := make([]string, c.Cfg.N)
	for i := range b {
		switch s := c.Standing(uint32(i)); {
		case c.zombie[i]:
			b[i] = fmt.Sprintf("r%d zombie", i)
		case s == nil:
			b[i] = fmt.Sprintf("r%d down", i)
		default:
			b[i] = fmt.Sprintf("r%d %v", i, s)
		}
	}
	return strings.Join(b, ", ")
}

// NewClient attaches a fresh client to the cluster.
func (c *Cluster) NewClient(timeout time.Duration) (*client.Client, error) {
	id := c.nextClient
	c.nextClient++
	return client.New(client.Options{
		Config:   c.Cfg,
		ID:       id,
		Endpoint: c.Net.Endpoint(id),
		Timeout:  timeout,
	})
}

// Crash hard-stops replica id and detaches it from the network,
// simulating a fail-stop fault with kill -9 semantics: durable state
// is left exactly as the crash instant finds it — no final counter
// seal, no WAL flush, a torn log tail. A later Restart therefore
// exercises the genuine crash-recovery path (horizon jump + tail
// truncation), not the graceful-shutdown one; use Shutdown for the
// latter. The replica is marked crashed and halted before its links
// are cut, so no goroutine observes a half-dead replica.
func (c *Cluster) Crash(id uint32) { c.halt(id, false) }

// Shutdown gracefully stops replica id and detaches it from the
// network — the SIGTERM analogue: the WAL is flushed and the exact
// counter values sealed, so a later Restart resumes warm with no
// horizon jump.
func (c *Cluster) Shutdown(id uint32) { c.halt(id, true) }

func (c *Cluster) halt(id uint32, graceful bool) {
	if c.crashed[id] {
		return
	}
	c.crashed[id] = true
	if k, ok := c.replicas[id].(Killer); ok && !graceful {
		k.Kill()
	} else {
		c.replicas[id].Stop()
	}
	c.Net.Isolate(id)
}

// Restart brings a crashed replica back: its links are healed, a fresh
// endpoint replaces the dead registration, and a new engine instance is
// built by the cluster's factory on the replica's original enclave
// platform (the trusted subsystem survives the host crash, as SGX
// state sealed to the platform would). With a data root this is a COLD
// restart: memory is lost but the disk survives, so the engine resumes
// from sealed counters and the write-ahead log. Without one it starts
// from empty state and must catch up via state transfer. If the
// factory refuses to boot (e.g. trinx.ErrStaleSeal on a rolled-back
// seal), the replica stays down and isolated.
func (c *Cluster) Restart(id uint32) error {
	if !c.crashed[id] {
		return fmt.Errorf("cluster: replica %d is not crashed", id)
	}
	c.Net.HealNode(id)
	ep := c.endpoint(id)
	r, err := c.factory(c.Cfg, id, ep, c.env(id))
	if err != nil {
		c.Net.Isolate(id)
		return fmt.Errorf("cluster: restart replica %d: %w", id, err)
	}
	c.replicas[id] = r
	c.crashed[id] = false
	c.zombie[id] = false
	r.Start()
	return nil
}

// RestartAmnesia wipes replica id's data directory before restarting,
// simulating total disk loss (or an operator restoring the wrong
// backup). A replica with sealed counters (Hybster) MUST refuse to come
// back: its platform's monotonic seal register proves counter state
// existed that the disk no longer holds, so resuming fresh could let it
// re-certify old counter values — the classic restart-equivocation
// attack. The returned error wraps trinx.ErrAmnesia and the replica is
// recorded as a zombie: permanently down, exempt from liveness checks.
// A replica that seals nothing (PBFT, or any without a data root) has
// no counters to lose and restarts volatile.
func (c *Cluster) RestartAmnesia(id uint32) error {
	if !c.crashed[id] {
		return fmt.Errorf("cluster: replica %d is not crashed", id)
	}
	if dir := c.dataDirs[id]; dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("cluster: wipe replica %d data: %w", id, err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("cluster: recreate replica %d data: %w", id, err)
		}
	}
	if err := c.Restart(id); err != nil {
		c.zombie[id] = true
		return err
	}
	return nil
}

// Zombie reports whether replica id tried to rejoin and was refused
// (amnesia or rolled-back seal) and is now permanently down.
func (c *Cluster) Zombie(id uint32) bool { return c.zombie[id] }

// Zombies lists all refused replicas.
func (c *Cluster) Zombies() []uint32 {
	var out []uint32
	for id, z := range c.zombie {
		if z {
			out = append(out, uint32(id))
		}
	}
	return out
}

// Hijack stops replica id and hands its network identity to the
// caller: the returned endpoint sends and receives as that replica.
// It is the entry point for Byzantine fault-injection tests — the
// attacker holds the replica's network position but not its trusted
// subsystem (enclave state dies with the replica, as it would under
// SGX when the host is compromised).
func (c *Cluster) Hijack(id uint32) transport.Endpoint {
	if !c.crashed[id] {
		c.crashed[id] = true
		c.replicas[id].Stop()
	}
	return c.Net.Endpoint(id)
}

// Partition cuts the link between two replicas.
func (c *Cluster) Partition(a, b uint32) { c.Net.Partition(a, b) }

// Isolate cuts replica a off from everyone.
func (c *Cluster) Isolate(a uint32) { c.Net.Isolate(a) }

// Heal repairs one link.
func (c *Cluster) Heal(a, b uint32) { c.Net.Heal(a, b) }

// HealAll repairs all partitions.
func (c *Cluster) HealAll() { c.Net.HealAll() }

// Stop shuts the whole cluster down.
func (c *Cluster) Stop() {
	for id, r := range c.replicas {
		if r != nil && !c.crashed[id] {
			r.Stop()
		}
	}
	c.Net.Close()
}

// WaitExecuted blocks until every live replica executed at least
// order o, or the deadline passes.
func (c *Cluster) WaitExecuted(o timeline.Order, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		all := true
		for id, r := range c.replicas {
			if c.crashed[id] {
				continue
			}
			if r.LastExecuted() < o {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster: not all replicas reached order %d within %v", o, deadline)
}
