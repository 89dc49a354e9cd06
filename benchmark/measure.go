package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"hybster/benchmark/load"
	"hybster/benchmark/trace"
	"hybster/internal/message"
)

// params are the lengths of one measurement; the workloads' inputs are
// in spec.go. A measurement sets the workload up `setups` times and
// measures on the last `groups` of those set-ups: each measured group is
// a fresh cluster that gets its own warm-up and `windows` windows.
// Spreading the windows over fresh clusters matters on this host: how a
// process's goroutines and memory happen to be placed moves a whole
// cluster's throughput by several percent for as long as it lives, and
// the median over clusters is what repeats from run to run.
type params struct {
	seed    int64
	setups  int // set-ups timed (setup_s is their median); at least groups
	groups  int // set-ups that are also measured
	warmup  time.Duration
	windows int // per group
	window  time.Duration
	scratch string // directory for replica data
}

// windowStat is one measurement window: the operations that completed
// in it and the process CPU it consumed.
type windowStat struct {
	dur, cpu          time.Duration
	attempted, failed int
	latencies         []int64 // of the correct operations, ascending, ns
}

func (w windowStat) ops() int { return len(w.latencies) }

func (w windowStat) opsPerSecond() float64 { return float64(w.ops()) / w.dur.Seconds() }

func (w windowStat) p50Micros() float64 { return float64(load.Quantile(w.latencies, 0.5)) / 1e3 }

// measurement is everything one run of one workload observed.
type measurement struct {
	setups  []time.Duration
	windows []windowStat
	// counters is the growth of every telemetry series (summed over the
	// replicas) and marshals that of the process-wide marshal count,
	// over the measured windows of every group.
	counters map[string]float64
	marshals uint64
	// net is what the endpoint wrappers counted over the same windows
	// (zero when untraced).
	netMsgs, netBytes, netProtocol uint64
	// failover-durable only.
	outages, rejoins []time.Duration
	genLag           []int64
}

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// boundary is the state sampled at a window edge.
type boundary struct {
	at  int64 // ns since the generator epoch
	cpu time.Duration
}

func markBoundary(epoch time.Time) boundary {
	return boundary{at: int64(time.Since(epoch)), cpu: processCPU()}
}

// sleepUntil sleeps until `at` after epoch.
func sleepUntil(epoch time.Time, at time.Duration) {
	if d := at - time.Since(epoch); d > 0 {
		time.Sleep(d)
	}
}

// measure runs the workload as p describes and validates everything it
// saw. A non-nil rec makes it the traced run (one group only: request
// ids repeat from group to group).
func measure(w *workload, p params, rec *trace.Recorder) (*measurement, error) {
	if measured := time.Duration(p.windows) * p.window; w.failover && measured < minCycle {
		return nil, fmt.Errorf("%s: crash and recovery need %v, the windows cover %v", w.name, minCycle, measured)
	}
	m := &measurement{counters: make(map[string]float64)}
	for i := 0; i < p.setups; i++ {
		// Collect what the previous group left behind, so that a set-up
		// is not timed against its predecessor's garbage.
		runtime.GC()
		start := time.Now()
		g, err := buildGroup(w, p.seed, rec, p.scratch)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
		if i < p.setups-p.groups {
			g.stop()
			continue
		}
		if err := m.measureGroup(g, p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// measureGroup drives one freshly set-up group through a warm-up and
// p.windows windows, stops it, and adds what it saw to m.
func (m *measurement) measureGroup(g *group, p params) error {
	w := g.w
	epoch := time.Now()
	stop := make(chan struct{})
	done := make(chan *load.Log, 1)
	if w.failover {
		// The open loop ends with its schedule, not with stop.
		due := load.Schedule(p.seed, openRate, p.warmup+time.Duration(p.windows)*p.window)
		go func() { done <- load.RunOpen(w.clients, due, g.op, epoch) }()
	} else {
		go func() { done <- load.RunClosed(w.clients, g.op, epoch, stop) }()
	}

	sleepUntil(epoch, p.warmup)
	before := g.snapshot()
	marshalsBefore, _ := message.MarshalStats()
	var msgsBefore, bytesBefore, protocolBefore uint64
	if g.s != nil {
		msgsBefore, bytesBefore, protocolBefore = g.s.netTotals()
	}
	bounds := []boundary{markBoundary(epoch)}
	var crashed int64
	if w.failover {
		crashed = g.crashAndRestartLeader(p, epoch, m)
	}
	for i := 1; i <= p.windows; i++ {
		sleepUntil(epoch, p.warmup+time.Duration(i)*p.window)
		bounds = append(bounds, markBoundary(epoch))
	}
	close(stop)
	log := <-done

	for name, v := range g.snapshot() {
		m.counters[name] += v - before[name]
	}
	marshalsAfter, _ := message.MarshalStats()
	m.marshals += marshalsAfter - marshalsBefore
	if g.s != nil {
		msgs, bytes, protocol := g.s.netTotals()
		m.netMsgs += msgs - msgsBefore
		m.netBytes += bytes - bytesBefore
		m.netProtocol += protocol - protocolBefore
	}
	g.stop()

	for i := 1; i < len(bounds); i++ {
		win := log.Window(bounds[i-1].at, bounds[i].at)
		if len(win.Latencies) == 0 {
			return fmt.Errorf("%s: a window completed no operation", w.name)
		}
		m.windows = append(m.windows, windowStat{
			dur: time.Duration(bounds[i].at - bounds[i-1].at), cpu: bounds[i].cpu - bounds[i-1].cpu,
			attempted: win.Attempted, failed: win.Failed, latencies: win.Latencies,
		})
	}
	m.genLag = append(m.genLag, log.GenLag...)
	if w.failover {
		if s, ok := log.FirstStartedAfter(crashed); ok {
			m.outages = append(m.outages, time.Duration(s.End-crashed))
		}
	}
	if log.FirstErr != nil {
		return fmt.Errorf("%s: an operation failed: %w", w.name, log.FirstErr)
	}
	if g.marks != nil {
		// Only now, with every replica stopped, are the chains final.
		var acked uint64
		for _, samples := range log.PerClient {
			for _, s := range samples {
				if !s.Failed {
					acked++
				}
			}
		}
		if err := checkAgreement(g.marks, g.acked+acked); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// Crash timing of failover-durable, from the end of the warm-up. The
// restart comes after the outage (about two view-change timeouts) so
// that the replica rejoins an installed view, which is the recovery a
// real crash exercises. minCycle leaves it a second to catch up.
const (
	crashAfter   = 200 * time.Millisecond
	restartAfter = crashAfter + 1500*time.Millisecond
	minCycle     = restartAfter + time.Second
)

// crashAndRestartLeader is failover-durable's disturbance, early in the
// first window: the current leader is crashed (its unsynced WAL tail is
// discarded) and restarted cold 1.5 s later, while requests keep falling
// due. It returns the crash instant (ns since epoch). The windows after
// it measure the recovered group, so the metric medians over windows
// describe that, and outage_ms and rejoin_ms describe the disturbance.
func (g *group) crashAndRestartLeader(p params, epoch time.Time, m *measurement) int64 {
	sleepUntil(epoch, p.warmup+crashAfter)
	leader := g.leader()
	crashed := int64(time.Since(epoch))
	g.mem.Crash(leader)
	sleepUntil(epoch, p.warmup+restartAfter)
	if err := g.mem.Restart(leader); err != nil {
		// The replica stays down; the group runs on without slack.
		fmt.Fprintf(os.Stderr, "benchmark: restart of replica %d failed: %v\n", leader, err)
	} else if took, ok := g.waitRejoined(leader, p.warmup+minCycle-time.Since(epoch)); ok {
		m.rejoins = append(m.rejoins, took)
	}
	return crashed
}

// endToEndValues condenses the windows into the gated metrics: each is
// the median over the windows, so one disturbed window does not move it.
func (m *measurement) endToEndValues() map[string]float64 {
	var ops, p50, cpu []float64
	for _, w := range m.windows {
		ops = append(ops, w.opsPerSecond())
		p50 = append(p50, w.p50Micros())
		cpu = append(cpu, float64(w.cpu.Microseconds())/float64(w.ops()))
	}
	setups := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setups[i] = s.Seconds()
	}
	return map[string]float64{
		"ops_per_s":     load.Median(ops),
		"p50_us":        load.Median(p50),
		"cpu_us_per_op": load.Median(cpu),
		"setup_s":       load.Median(setups),
	}
}

// totals sums attempts, failures and correct operations over the windows.
func (m *measurement) totals() (attempted, failed, ops int) {
	for _, w := range m.windows {
		attempted += w.attempted
		failed += w.failed
		ops += w.ops()
	}
	return
}

// allLatencies merges the windows' latencies, ascending.
func (m *measurement) allLatencies() []int64 {
	var all []int64
	for _, w := range m.windows {
		all = append(all, w.latencies...)
	}
	slices.Sort(all)
	return all
}
