// Package bench is the measurement harness that regenerates every
// figure of the paper's evaluation (§6). Each Fig* function boots the
// protocol configurations under test on the in-process fabric, drives
// them with closed-loop clients exactly like the paper's load
// generators, and returns the measured series; cmd/hybster-bench and
// the bench_test.go benchmarks print them. RunLoad is the root module's
// one closed-loop driver: cmd/hybster-client runs it over TCP clients.
//
// Absolute numbers differ from the paper's testbed (different CPU,
// language, and a simulated SGX), but the comparative shapes — who
// wins, by what factor, where saturation sets in — are the
// reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

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
	// ECallsPerReq is the enclave transitions one replica paid per
	// executed request; 0 where there is no replicated system (Fig. 5a)
	// or no trusted subsystem (PBFTcop).
	ECallsPerReq float64
	// ReqsPerBatch is the requests per executed instance, the group's
	// mean; 0 where there is no replicated system.
	ReqsPerBatch float64
}

// Options control the length and resolution of a figure's measurement.
type Options struct {
	// Duration is the measured window per data point; raise it toward
	// the paper's 120 s for stable numbers.
	Duration time.Duration
	// Clients is the closed-loop client count for throughput-oriented
	// figures (latency figures sweep their own counts).
	Clients int
	// Quick reduces sweep resolution for smoke tests.
	Quick bool
}

// warmup is discarded before every figure's measured window starts.
const warmup = 300 * time.Millisecond

// Specs returns the four configurations of Figs. 5b-6c in paper order.
func Specs() []config.Protocol {
	return []config.Protocol{config.HybsterX, config.HybsterS, config.HybridPBFT, config.PBFTcop}
}

// BuildCluster boots one protocol configuration for benchmarking. The
// sequential configurations (HybsterS, MinBFT) keep their one pillar
// whatever the core count.
func BuildCluster(proto config.Protocol, cores, batch int, rotate bool,
	cost enclave.CostModel, profile transport.LinkProfile,
	app func() statemachine.Application) (*cluster.Cluster, error) {

	cfg := config.Default(proto)
	if cfg.Pillars > 1 {
		cfg.Pillars = cores
	}
	cfg.BatchSize = batch
	cfg.RotateLeader = rotate
	cfg.CheckpointInterval = 256
	cfg.WindowSize = 1024
	cfg.ViewChangeTimeout = 10 * time.Second // benches must never view-change
	return cluster.Boot(cluster.Options{Config: cfg, Profile: profile, EnclaveCost: cost}, app)
}

// ClusterClients is the client factory of an in-process cluster, for
// RunLoad. The timeout is long: a bench cluster never view-changes, so
// a retransmission only ever papers over a stall worth seeing.
func ClusterClients(c *cluster.Cluster) func() (*client.Client, error) {
	return func() (*client.Client, error) { return c.NewClient(5 * time.Second) }
}

// errDone is what a step returns when its worker has no more work.
var errDone = errors.New("bench: worker done")

// measureWindow is the measurement protocol of every number this
// module reports. Each step is called back to back from a goroutine of
// its own until it fails or returns errDone; calls that start in the
// first `warmup` are discarded, calls that start in the `duration`
// after it and succeed are counted. When the window closes — or
// earlier, once every worker has returned — interrupt is called to
// abort the calls still in flight and the workers are joined. It
// returns the count, the length of the window and the first failure.
//
// A step is told whether it is measured as of its START: a call issued
// during warm-up but completing inside the window would otherwise be
// recorded with latency accumulated before measurement began, biasing
// the first window samples upward (calls issued inside the window that
// complete after it closes are counted — the symmetric convention for
// closed-loop load).
func measureWindow(steps []func(measured bool) error, warmup, duration time.Duration,
	interrupt func()) (uint64, time.Duration, error) {

	var (
		measuring, stopped atomic.Bool
		ops                atomic.Uint64
		wg                 sync.WaitGroup
		failOnce           sync.Once
		failure            error
	)
	// Without a warm-up the window is open before the first call
	// starts, so a bounded run counts every one of its operations.
	measuring.Store(warmup <= 0)
	for _, step := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				measured := measuring.Load()
				if err := step(measured); err != nil {
					if err != errDone {
						failOnce.Do(func() { failure = err })
					}
					return
				}
				if measured {
					ops.Add(1)
				}
			}
		}()
	}
	idle := make(chan struct{})
	go func() { wg.Wait(); close(idle) }()
	sleep := func(d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-idle:
		}
	}

	sleep(warmup)
	measuring.Store(true)
	start := time.Now()
	sleep(duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	stopped.Store(true)
	interrupt()
	<-idle
	return ops.Load(), elapsed, failure
}

// RunLoad drives `clients` closed-loop clients, each obtained from
// newClient: a client continuously issues the operations of its
// generator and waits for the f+1 matching replies, exactly the client
// behaviour of §6, until the generator ends or the window closes. Then
// the clients are closed: an operation still in flight returns
// client.ErrClosed and is not recorded. (Letting it finish would wait
// on the protocol's idle path — with leader rotation the last requests
// sit behind order numbers of proposers that just went idle, which
// gap-fill one order per coordinator tick, 2.5 s under BuildCluster's
// timeout — and put that wait into the latency summary as a
// multi-second sample.) Any other failed operation ends its client and
// is returned, naming the client: a figure from fewer clients than it
// claims is not a figure.
func RunLoad(newClient func() (*client.Client, error), clients int, warmup, duration time.Duration,
	newGen func(clientID uint32) workload.Generator) (float64, stats.Summary, error) {

	rec := stats.NewRecorder()
	var closing atomic.Bool
	var cls []*client.Client
	closeAll := func() {
		closing.Store(true)
		for _, cl := range cls {
			cl.Close()
		}
	}
	steps := make([]func(bool) error, clients)
	for i := range steps {
		cl, err := newClient()
		if err != nil {
			closeAll()
			return 0, stats.Summary{}, fmt.Errorf("bench: client %d of %d: %w", i+1, clients, err)
		}
		cls = append(cls, cl)
		gen := newGen(cl.ID())
		steps[i] = func(measured bool) error {
			op, ok := gen.Next()
			if !ok {
				return errDone
			}
			start := time.Now()
			_, err := cl.Invoke(op.Payload, op.ReadOnly)
			switch {
			case err == nil:
				if measured {
					rec.Record(time.Since(start))
				}
				return nil
			case closing.Load() && errors.Is(err, client.ErrClosed):
				return errDone
			default:
				return fmt.Errorf("bench: client %d: %w", cl.ID(), err)
			}
		}
	}
	ops, elapsed, err := measureWindow(steps, warmup, duration, closeAll)
	return stats.Throughput(ops, elapsed), rec.Summarize(), err
}

// WriteTable renders points grouped by series as the rows/columns the
// paper's figures plot.
func WriteTable(w io.Writer, title, xLabel string, points []Point) {
	width := len("series")
	for _, p := range points {
		width = max(width, utf8.RuneCountInString(p.Series)) // what %-*s pads by
	}
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-*s %10s %14s %12s %12s %12s %11s %11s\n",
		width, "series", xLabel, "throughput", "avg-lat", "p50", "p99", "ecalls/req", "reqs/batch")
	for _, p := range points {
		fmt.Fprintf(w, "%-*s %10.2f %14s %12s %12s %12s %11s %11s\n",
			width, p.Series, p.X, stats.FormatOps(p.Throughput),
			fmtDur(p.Latency.Avg), fmtDur(p.Latency.P50), fmtDur(p.Latency.P99),
			fmtRatio(p.ECallsPerReq), fmtRatio(p.ReqsPerBatch))
	}
	fmt.Fprintln(w)
}

// WriteCSV renders points machine-readably.
func WriteCSV(w io.Writer, points []Point) {
	fmt.Fprintln(w, "series,x,throughput_ops,avg_latency_us,p50_us,p99_us,ecalls_per_req,reqs_per_batch")
	for _, p := range points {
		fmt.Fprintf(w, "%s,%g,%.1f,%d,%d,%d,%.3f,%.3f\n",
			p.Series, p.X, p.Throughput,
			p.Latency.Avg.Microseconds(), p.Latency.P50.Microseconds(), p.Latency.P99.Microseconds(),
			p.ECallsPerReq, p.ReqsPerBatch)
	}
}

func fmtRatio(n float64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", n)
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
