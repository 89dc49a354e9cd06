package chaos

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/audit"
	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
	"hybster/internal/transport"
)

// loadClients is the number of concurrent load generators of a run.
const loadClients = 3

// Options configure one chaos run.
type Options struct {
	// Protocol selects the cluster flavor under test.
	Protocol config.Protocol
	// Plan is the fault schedule; nil generates one from Seed.
	Plan *Plan
	// Seed derives the generated plan (ignored when Plan is set).
	Seed int64
	// Horizon is how long the fault schedule stays active (generated
	// plans only; an explicit Plan carries its own horizon).
	Horizon time.Duration
	// SettleTimeout bounds the post-heal recovery phase: the cluster
	// must commit fresh requests and lagging replicas must catch up
	// within it (default 20s).
	SettleTimeout time.Duration
	// MinPostHealCommits is the liveness bar: at least this many fresh
	// requests must commit after everything heals (default 5).
	MinPostHealCommits int
	// Fork, when set, deliberately diverges one replica's state
	// machine (see ForkSpec) so the run violates safety on purpose —
	// the online auditor must end the run holding a digest-divergence
	// finding, and Run returns an error.
	Fork *ForkSpec
	// DataRoot, when set, runs replicas with persistent data
	// directories under it: crash+restart becomes a cold restart
	// (recover from sealed counters and the WAL), and scheduled
	// amnesia events become meaningful (the wiped replica must be
	// refused as a zombie). Crashes are hard kills — no exact-value
	// seal, no WAL flush, a torn log tail — so recovery runs against
	// genuine kill -9 artifacts, not a graceful shutdown's. MinBFT
	// refuses a data dir, so a MinBFT run leaves it unset. Tests pass
	// t.TempDir().
	DataRoot string
	// Logf receives progress lines (optional; tests pass t.Logf).
	Logf func(format string, args ...any)
}

// Result reports what one chaos run did and observed.
type Result struct {
	Plan Plan
	// ChaosCommits counts client requests committed while faults were
	// active (may be low — partitions stall progress by design).
	ChaosCommits uint64
	// PostHealCommits counts requests committed after the heal phase.
	PostHealCommits uint64
	// Faults aggregates injected-fault counters over every replica
	// endpoint incarnation.
	Faults transport.FaultStats
	// MaxOrder is the highest order number executed by any replica.
	MaxOrder timeline.Order
	// HistoryPoints is the number of (execution count → digest) samples
	// the safety check compared.
	HistoryPoints int
	// Restarted lists replicas that were crash-restarted.
	Restarted []uint32
	// Zombies lists replicas that tried to rejoin after losing durable
	// state (amnesia) and were correctly refused — they stay down and
	// are exempt from the catch-up liveness check.
	Zombies []uint32
	// Telemetry is each replica's flattened metrics snapshot taken at
	// the end of the run (index = replica ID). Counters survive
	// restarts (the registry outlives engine incarnations), so tests
	// can assert on internal protocol behavior — e.g. that message loss
	// actually forced retransmissions.
	Telemetry []map[string]float64
	// Audit is the online protocol auditor's final report: every
	// chaos run is audited live (digest agreement throughout, liveness
	// checks armed after the heal), and any finding fails the run.
	Audit audit.Report
}

// Metric sums one metric across every replica's snapshot, matching
// series by exposition-name prefix so labeled families (e.g.
// `hybster_core_retransmits_total{pillar="0"}`) aggregate naturally.
func (r *Result) Metric(prefix string) float64 {
	var sum float64
	for _, snap := range r.Telemetry {
		for name, v := range snap {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				sum += v
			}
		}
	}
	return sum
}

func (o Options) withDefaults() Options {
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 20 * time.Second
	}
	if o.MinPostHealCommits <= 0 {
		o.MinPostHealCommits = 5
	}
	if o.Horizon <= 0 {
		o.Horizon = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// historyRegistry collects, per replica incarnation, the hash chain of
// every execution step. Safety holds iff all incarnations that reached
// execution count n computed the same chain digest at n: the chain
// commits to the full ordered history (client, payload, read-only
// flag, and result of every request), so equal digests mean equal
// histories.
type historyRegistry struct {
	mu      sync.Mutex
	samples map[uint64]map[string]crypto.Digest // count → incarnation → chain
}

func newHistoryRegistry() *historyRegistry {
	return &historyRegistry{
		samples: make(map[uint64]map[string]crypto.Digest),
	}
}

func (r *historyRegistry) record(inc string, count uint64, chain crypto.Digest) {
	r.mu.Lock()
	m, ok := r.samples[count]
	if !ok {
		m = make(map[string]crypto.Digest)
		r.samples[count] = m
	}
	m[inc] = chain
	r.mu.Unlock()
}

// check returns an error describing the first divergence, scanning
// counts in ascending order.
func (r *historyRegistry) check() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make([]uint64, 0, len(r.samples))
	for c := range r.samples {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	points := 0
	for _, c := range counts {
		m := r.samples[c]
		points += len(m)
		var ref crypto.Digest
		var refInc string
		first := true
		for inc, d := range m {
			if first {
				ref, refInc, first = d, inc, false
				continue
			}
			if d != ref {
				return points, fmt.Errorf("chaos: history divergence at execution %d: %s=%x vs %s=%x",
					c, refInc, ref[:6], inc, d[:6])
			}
		}
	}
	return points, nil
}

// historyRecorder wraps an Application with an execution hash chain.
// The chain and its length ride inside the snapshot, so state transfer
// hands a restored replica the logical history position along with the
// state — its subsequent digests remain comparable.
type historyRecorder struct {
	inner statemachine.Application
	reg   *historyRegistry
	inc   string

	mu    sync.Mutex
	count uint64
	chain crypto.Digest
}

func (h *historyRecorder) Execute(client uint32, payload []byte, readOnly bool) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	res := h.inner.Execute(client, payload, readOnly)
	enc := message.NewEncoder(len(h.chain) + 16 + len(payload) + len(res))
	enc.Bytes32(h.chain)
	enc.U32(client)
	enc.Bool(readOnly)
	enc.VarBytes(payload)
	enc.VarBytes(res)
	h.chain = crypto.Hash(enc.Bytes())
	h.count++
	h.reg.record(h.inc, h.count, h.chain)
	return res
}

func (h *historyRecorder) Snapshot() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	inner := h.inner.Snapshot()
	enc := message.NewEncoder(16 + len(h.chain) + len(inner))
	enc.U64(h.count)
	enc.Bytes32(h.chain)
	enc.VarBytes(inner)
	return enc.Bytes()
}

func (h *historyRecorder) Restore(snapshot []byte) error {
	d := message.NewDecoder(snapshot)
	count := d.U64()
	chain := crypto.Digest(d.Bytes32())
	inner := d.VarBytes()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("chaos: recorder snapshot: %w", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.inner.Restore(append([]byte(nil), inner...)); err != nil {
		return err
	}
	h.count = count
	h.chain = chain
	// A transferred snapshot asserts a history position too; recording
	// it cross-checks state transfer against live execution.
	if count > 0 {
		h.reg.record(h.inc, count, chain)
	}
	return nil
}

// run bundles the mutable state of one chaos run.
type run struct {
	opts Options
	plan Plan
	cfg  config.Config

	reg *historyRegistry
	inj transport.Injector

	mon *audit.Monitor

	mu           sync.Mutex // guards cluster mutation + fields below
	cl           *cluster.Cluster
	incarnation  map[uint32]int
	faulty       []*transport.FaultyEndpoint
	restarted    map[uint32]bool
	auditStopped bool
	chaosCommits atomic.Uint64
	healCommits  atomic.Uint64
}

// configFor builds the deliberately small chaos configuration: tiny
// checkpoint interval and window so restarted replicas catch up after
// a handful of commits, and a short view-change timeout so leader
// suspicion plays out within the schedule horizon.
func configFor(p config.Protocol) config.Config {
	pillars := 1
	if p == config.HybsterX {
		pillars = 2
	}
	return config.Config{
		Protocol:           p,
		N:                  config.ReplicasFor(p, 1),
		Pillars:            pillars,
		BatchSize:          8,
		CheckpointInterval: 8,
		WindowSize:         32,
		ViewChangeTimeout:  250 * time.Millisecond,
		KeySeed:            "chaos",
	}
}

// factory builds one replica engine of the configured protocol with a
// history-recording application. Each (replica, incarnation) pair gets
// its own recorder identity so a restarted replica's fresh history is
// tracked separately from its previous life.
func (r *run) factory(cfg config.Config, id uint32, ep transport.Endpoint, env cluster.NodeEnv) (cluster.Replica, error) {
	r.incarnation[id]++
	var inner statemachine.Application = counter.New()
	if r.opts.Fork != nil && r.opts.Fork.Replica == id {
		// The fork sits inside the history recorder, so the recorder
		// chains over the forked replica's (diverged) results and the
		// history safety check fails alongside the auditor's finding.
		inner = &forkApp{inner: inner}
	}
	app := &historyRecorder{
		inner: inner,
		reg:   r.reg,
		inc:   fmt.Sprintf("r%d#%d", id, r.incarnation[id]),
	}
	return cluster.NewEngine(cfg, id, ep, env, app, enclave.CostModel{})
}

// wrapEndpoint decorates a replica endpoint with the run's fault
// injector and remembers it for stats aggregation. Called under r.mu
// (cluster.New and Restart run inside the lock).
func (r *run) wrapEndpoint(id uint32, ep transport.Endpoint) transport.Endpoint {
	f := transport.WrapFaulty(ep, r.inj)
	r.faulty = append(r.faulty, f)
	return f
}

// Run executes one chaos schedule against a fresh cluster and checks
// the safety and liveness invariants. A non-nil error means an
// invariant was violated (or the cluster failed to boot); fault-stall
// behavior during the schedule is not an error.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	cfg := configFor(o.Protocol)
	var plan Plan
	if o.Plan != nil {
		plan = *o.Plan
	} else {
		plan = Generate(o.Seed, cfg.N, o.Horizon)
	}

	r := &run{
		opts:        o,
		plan:        plan,
		cfg:         cfg,
		reg:         newHistoryRegistry(),
		inj:         plan.NewInjector(),
		incarnation: make(map[uint32]int),
		restarted:   make(map[uint32]bool),
	}

	r.mu.Lock()
	cl, err := cluster.New(cluster.Options{
		Config:       cfg,
		WrapEndpoint: r.wrapEndpoint,
		DataRoot:     o.DataRoot,
	}, r.factory)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.cl = cl
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		cl.Stop()
		r.mu.Unlock()
	}()

	// Every chaos run is audited online: safety checks from the first
	// poll, liveness checks armed once the cluster heals.
	r.startAudit()
	defer r.stopAudit()

	o.Logf("chaos: %s under %s", o.Protocol, plan)

	// Client load for the whole run: short per-attempt timeouts so
	// partitions surface as retries, not as stuck goroutines.
	stopLoad := make(chan struct{})
	var load sync.WaitGroup
	for i := 0; i < loadClients; i++ {
		r.mu.Lock()
		c, cerr := cl.NewClient(120 * time.Millisecond)
		r.mu.Unlock()
		if cerr != nil {
			close(stopLoad)
			return nil, cerr
		}
		load.Add(1)
		go func(c *client.Client) {
			defer load.Done()
			defer c.Close()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, err := c.Invoke([]byte{1}, false); err == nil {
					r.chaosCommits.Add(1)
				}
			}
		}(c)
	}

	// Apply the schedule, then complete outstanding restarts and heal.
	r.applySchedule()
	close(stopLoad)
	load.Wait()

	r.mu.Lock()
	r.cl.HealAll()
	for _, f := range r.faulty {
		f.Quiesce()
	}
	healTarget := r.maxExecutedLocked()
	r.mu.Unlock()
	o.Logf("chaos: healed; max executed order %d; %d commits under faults",
		healTarget, r.chaosCommits.Load())
	r.mon.Auditor().EnableLiveness(true)

	if err := r.settle(healTarget); err != nil {
		if os.Getenv("CHAOS_DEBUG_STACKS") != "" {
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		}
		r.stopAudit()
		return r.result(), err
	}

	r.stopAudit()
	res := r.result()
	points, serr := r.reg.check()
	res.HistoryPoints = points
	if serr != nil {
		return res, serr
	}
	if n := len(res.Audit.Findings); n > 0 {
		f := res.Audit.Findings[0]
		return res, fmt.Errorf("chaos: auditor raised %d finding(s); first: [%s] %s", n, f.Kind, f.Detail)
	}
	o.Logf("chaos: safety ok over %d history points; audit clean over %d rounds; %d post-heal commits",
		points, res.Audit.Rounds, res.PostHealCommits)
	return res, nil
}

// applySchedule sleeps through the plan's event timeline, applying
// partitions, heals, crashes, and restarts at their offsets.
func (r *run) applySchedule() {
	type event struct {
		at    time.Duration
		apply func()
	}
	var events []event
	for _, c := range r.plan.Crashes {
		c := c
		events = append(events, event{c.At, func() {
			r.opts.Logf("chaos: crash r%d", c.Replica)
			r.mu.Lock()
			r.cl.Crash(c.Replica)
			r.restarted[c.Replica] = true
			r.mu.Unlock()
		}})
		if c.Downtime > 0 && c.At+c.Downtime < r.plan.Horizon {
			events = append(events, event{c.At + c.Downtime, func() {
				r.mu.Lock()
				if c.Amnesia && r.opts.DataRoot != "" {
					// Wipe the disk first: a durable replica must be
					// refused (its seal register outlives its blob) and
					// stays down as a zombie for the rest of the run.
					r.opts.Logf("chaos: restart r%d with amnesia", c.Replica)
					if err := r.cl.RestartAmnesia(c.Replica); err != nil {
						r.opts.Logf("chaos: r%d refused (zombie): %v", c.Replica, err)
					}
				} else {
					r.opts.Logf("chaos: restart r%d", c.Replica)
					_ = r.cl.Restart(c.Replica)
				}
				r.mu.Unlock()
			}})
		}
	}
	for _, p := range r.plan.Partitions {
		p := p
		events = append(events, event{p.At, func() {
			r.opts.Logf("chaos: partition %d↔%d", p.A, p.B)
			r.mu.Lock()
			r.cl.Partition(p.A, p.B)
			r.mu.Unlock()
		}})
		if p.Heal < r.plan.Horizon {
			events = append(events, event{p.Heal, func() {
				r.opts.Logf("chaos: heal %d↔%d", p.A, p.B)
				r.mu.Lock()
				r.cl.Heal(p.A, p.B)
				r.mu.Unlock()
			}})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	start := time.Now()
	for _, e := range events {
		if d := e.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		e.apply()
	}
	if d := r.plan.Horizon - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	// Bring back any replica still down at the horizon — except
	// zombies, which were refused for cause and must stay down.
	r.mu.Lock()
	for id := uint32(0); int(id) < r.cfg.N; id++ {
		if r.cl.Replica(id) == nil && !r.cl.Zombie(id) {
			r.opts.Logf("chaos: restart r%d (horizon)", id)
			_ = r.cl.Restart(id)
		}
	}
	r.mu.Unlock()
}

// settle drives fresh load after the heal and enforces liveness: at
// least MinPostHealCommits must succeed, and every replica that can
// catch up must reach the pre-heal execution frontier. MinBFT is
// exempt from the catch-up half: a replica that rejoined after
// amnesia is convicted of counter regression by its peers and refused
// from ordering forever — the recovery gap §4.4 of the paper points
// out in prior hybrid protocols — so even though checkpoint-anchored
// state transfer lets fallen-behind replicas resume execution, a
// convicted replica's frontier is not guaranteed to advance. For
// MinBFT the harness therefore asserts safety and post-heal commits
// only.
func (r *run) settle(target timeline.Order) error {
	r.mu.Lock()
	probe, err := r.cl.NewClient(300 * time.Millisecond)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	defer probe.Close()

	deadline := time.Now().Add(r.opts.SettleTimeout)
	for time.Now().Before(deadline) {
		if _, err := probe.Invoke([]byte{1}, false); err == nil {
			r.healCommits.Add(1)
		}
		if int(r.healCommits.Load()) >= r.opts.MinPostHealCommits && r.caughtUp(target) {
			return nil
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(r.healCommits.Load()) < r.opts.MinPostHealCommits {
		return fmt.Errorf("chaos: liveness violated: only %d/%d commits within %v after heal; %s",
			r.healCommits.Load(), r.opts.MinPostHealCommits, r.opts.SettleTimeout, r.cl.Standings())
	}
	return fmt.Errorf("chaos: catch-up failed: not every replica executed order %d within %v after heal; %s",
		target, r.opts.SettleTimeout, r.cl.Standings())
}

// caughtUp reports whether every catch-up-eligible replica executed
// past the pre-heal frontier.
func (r *run) caughtUp(target timeline.Order) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := uint32(0); int(id) < r.cfg.N; id++ {
		// Zombies are permanently down by design (their rejoin was
		// refused); demanding catch-up from them would fail every durable
		// run. MinBFT is exempt as a whole (see settle).
		if r.cfg.Protocol == config.MinBFT || r.cl.Zombie(id) {
			continue
		}
		rep := r.cl.Replica(id)
		if rep == nil || rep.LastExecuted() < target {
			return false
		}
	}
	return true
}

func (r *run) maxExecutedLocked() timeline.Order {
	var max timeline.Order
	for id := uint32(0); int(id) < r.cfg.N; id++ {
		if rep := r.cl.Replica(id); rep != nil {
			if o := rep.LastExecuted(); o > max {
				max = o
			}
		}
	}
	return max
}

func (r *run) result() *Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &Result{
		Plan:            r.plan,
		ChaosCommits:    r.chaosCommits.Load(),
		PostHealCommits: r.healCommits.Load(),
		MaxOrder:        r.maxExecutedLocked(),
	}
	for id, was := range r.restarted {
		if was {
			res.Restarted = append(res.Restarted, id)
		}
	}
	sort.Slice(res.Restarted, func(i, j int) bool { return res.Restarted[i] < res.Restarted[j] })
	res.Zombies = r.cl.Zombies()
	res.Telemetry = make([]map[string]float64, r.cfg.N)
	for id := uint32(0); int(id) < r.cfg.N; id++ {
		res.Telemetry[id] = r.cl.Telemetry(id).Metrics().Snapshot()
	}
	if r.mon != nil {
		res.Audit = r.mon.Auditor().Report()
	}
	for _, f := range r.faulty {
		s := f.Stats()
		res.Faults.Sent += s.Sent
		res.Faults.Dropped += s.Dropped
		res.Faults.Duplicated += s.Duplicated
		res.Faults.Corrupted += s.Corrupted
		res.Faults.CorruptDropped += s.CorruptDropped
		res.Faults.Delayed += s.Delayed
		res.Faults.Held += s.Held
	}
	return res
}
