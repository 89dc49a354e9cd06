// Package bench is the measurement harness that regenerates every
// figure of the paper's evaluation (§6). Each Fig* function boots the
// protocol configurations under test on the in-process fabric, drives
// them with closed-loop clients exactly like the paper's load
// generators, and returns the measured series; cmd/hybster-bench and
// the bench_test.go benchmarks print them.
//
// Absolute numbers differ from the paper's testbed (different CPU,
// language, and a simulated SGX), but the comparative shapes — who
// wins, by what factor, where saturation sets in — are the
// reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/enclave"
	"hybster/internal/statemachine"
	"hybster/internal/stats"
	"hybster/internal/transport"
	"hybster/internal/workload"
)

// Point is one measurement of one series.
type Point struct {
	Series     string
	X          float64
	Throughput float64 // ops/s
	Latency    stats.Summary
	// Telemetry is the cluster-wide metric snapshot taken right after
	// the measured window (series summed across replicas). Nil for
	// points measured without a cluster (e.g. Fig. 5a certifiers).
	Telemetry map[string]float64
}

// Options control measurement length and simulated platform costs.
type Options struct {
	// Warmup is discarded before the measured window starts.
	Warmup time.Duration
	// Duration is the measured window per data point.
	Duration time.Duration
	// Clients is the closed-loop client count for throughput-oriented
	// figures (latency figures sweep their own counts).
	Clients int
	// EnclaveCost simulates the SGX transition overhead.
	EnclaveCost enclave.CostModel
	// Quick reduces sweep resolution for smoke tests.
	Quick bool
}

// DefaultOptions mirror the paper's setup at a laptop-friendly scale;
// raise Duration toward the paper's 120 s for stable numbers.
func DefaultOptions() Options {
	return Options{
		Warmup:      300 * time.Millisecond,
		Duration:    time.Second,
		Clients:     48,
		EnclaveCost: enclave.DefaultCostModel,
	}
}

// ProtocolSpec names one protocol configuration of §6 and how to scale
// it with the core count.
type ProtocolSpec struct {
	Name  string
	Proto config.Protocol
	// ScalesWithCores is false for the sequential configurations
	// (HybsterS, MinBFT), whose pillar count stays 1.
	ScalesWithCores bool
}

// Specs returns the four configurations of Figs. 5b-6c in paper order.
func Specs() []ProtocolSpec {
	return []ProtocolSpec{
		{Name: "HybsterX", Proto: config.HybsterX, ScalesWithCores: true},
		{Name: "HybsterS", Proto: config.HybsterS, ScalesWithCores: false},
		{Name: "HybridPBFT", Proto: config.HybridPBFT, ScalesWithCores: true},
		{Name: "PBFTcop", Proto: config.PBFTcop, ScalesWithCores: true},
	}
}

// BuildCluster boots one protocol configuration for benchmarking.
func BuildCluster(spec ProtocolSpec, cores, batch int, rotate bool,
	cost enclave.CostModel, profile transport.LinkProfile,
	app func() statemachine.Application) (*cluster.Cluster, error) {

	cfg := config.Default(spec.Proto)
	cfg.Pillars = 1
	if spec.ScalesWithCores {
		cfg.Pillars = cores
	}
	cfg.BatchSize = batch
	cfg.RotateLeader = rotate
	cfg.CheckpointInterval = 256
	cfg.WindowSize = 1024
	cfg.ViewChangeTimeout = 10 * time.Second // benches must never view-change
	return cluster.Boot(cluster.Options{Config: cfg, Profile: profile, Seed: 42, EnclaveCost: cost}, app)
}

// RunLoad drives `clients` closed-loop clients against the cluster:
// each continuously issues operations from its generator and waits for
// the f+1 matching replies, exactly the client behaviour of §6. Setup
// operations (key creation for the coordination service) run before
// the measured window. When the window ends the clients are closed:
// an operation still in flight returns client.ErrClosed and is not
// recorded. (Letting it finish would wait on the protocol's idle path —
// with leader rotation the last requests sit behind order numbers of
// proposers that just went idle, which gap-fill one order per
// coordinator tick, 2.5 s under BuildCluster's timeout — and put that
// wait into the latency summary as a multi-second sample.)
func RunLoad(c *cluster.Cluster, clients int, warmup, duration time.Duration,
	newGen func(clientID uint32) workload.Generator) (float64, stats.Summary, error) {

	type setupper interface{ Setup() []workload.Op }

	var ops atomic.Uint64
	rec := stats.NewRecorder()
	var measuring atomic.Bool

	stop := make(chan struct{})
	ready := make(chan error, clients)
	var wg sync.WaitGroup
	cls := make([]*client.Client, 0, clients)
	shutdown := func() {
		close(stop)
		for _, cl := range cls {
			cl.Close()
		}
		wg.Wait()
	}

	for i := 0; i < clients; i++ {
		cl, err := c.NewClient(5 * time.Second)
		if err != nil {
			shutdown()
			return 0, stats.Summary{}, err
		}
		cls = append(cls, cl)
		gen := newGen(cl.ID())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s, ok := gen.(setupper); ok {
				for _, op := range s.Setup() {
					if _, err := cl.Invoke(op.Payload, op.ReadOnly); err != nil {
						ready <- err
						return
					}
				}
			}
			ready <- nil
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				// Sample the measuring flag at op START: an op issued
				// during warmup but completing inside the window would
				// otherwise be recorded with latency accumulated before
				// measurement began, biasing the first window samples
				// upward (ops issued inside the window that complete
				// after it closes are counted — the symmetric
				// convention for closed-loop load).
				inWindow := measuring.Load()
				start := time.Now()
				if _, err := cl.Invoke(op.Payload, op.ReadOnly); err != nil {
					return // window over (client closed) or persistent failure
				}
				if inWindow {
					ops.Add(1)
					rec.Record(time.Since(start))
				}
			}
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-ready; err != nil {
			shutdown()
			return 0, stats.Summary{}, fmt.Errorf("bench: client setup: %w", err)
		}
	}

	time.Sleep(warmup)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	shutdown()

	return stats.Throughput(ops.Load(), elapsed), rec.Summarize(), nil
}

// WriteTable renders points grouped by series as the rows/columns the
// paper's figures plot.
func WriteTable(w io.Writer, title, xLabel string, points []Point) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-14s %10s %14s %12s %12s %12s\n",
		"series", xLabel, "throughput", "avg-lat", "p50", "p99")
	for _, p := range points {
		fmt.Fprintf(w, "%-14s %10.2f %14s %12s %12s %12s\n",
			p.Series, p.X, stats.FormatOps(p.Throughput),
			fmtDur(p.Latency.Avg), fmtDur(p.Latency.P50), fmtDur(p.Latency.P99))
	}
	fmt.Fprintln(w)
}

// WriteCSV renders points machine-readably.
func WriteCSV(w io.Writer, points []Point) {
	fmt.Fprintln(w, "series,x,throughput_ops,avg_latency_us,p50_us,p99_us")
	for _, p := range points {
		fmt.Fprintf(w, "%s,%g,%.1f,%d,%d,%d\n",
			p.Series, p.X, p.Throughput,
			p.Latency.Avg.Microseconds(), p.Latency.P50.Microseconds(), p.Latency.P99.Microseconds())
	}
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	if d < time.Millisecond {
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
