// Package hybster_test hosts the benchmark entry points that
// regenerate the paper's evaluation (one benchmark per figure, §6)
// plus per-operation microbenchmarks and ablations of the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute a reduced sweep per iteration and report
// the headline series as custom metrics; use cmd/hybster-bench for
// full-resolution sweeps and tables.
package hybster_test

import (
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/apps/echo"
	"hybster/internal/bench"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
	"hybster/internal/trinx"
	"hybster/internal/usig"
	"hybster/internal/workload"
)

// figOpts keeps figure benchmarks short enough for go test -bench.
func figOpts() bench.Options {
	return bench.Options{Duration: 400 * time.Millisecond, Clients: 24, Quick: true}
}

// runFigure runs one figure's reduced sweep per iteration and reports
// the best throughput per series as custom metrics. Metric units must
// not contain whitespace, so series names are reduced to their
// identifier characters ("TrInX (native)" → "TrInX-native").
func runFigure(b *testing.B, fig func(bench.Options) ([]bench.Point, error)) {
	for i := 0; i < b.N; i++ {
		points, err := fig(figOpts())
		if err != nil {
			b.Fatal(err)
		}
		best := map[string]float64{}
		for _, p := range points {
			if p.Throughput > best[p.Series] {
				best[p.Series] = p.Throughput
			}
		}
		for series, tput := range best {
			b.ReportMetric(tput, metricName(series)+"_ops/s")
		}
	}
}

func metricName(series string) string {
	out := make([]rune, 0, len(series))
	pendingDash := false
	for _, r := range series {
		switch {
		case r == ' ' || r == '(' || r == ')' || r == ',':
			pendingDash = len(out) > 0
		default:
			if pendingDash {
				out = append(out, '-')
				pendingDash = false
			}
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Figure benchmarks (§6) -------------------------------------------------

// BenchmarkFig5aTrustedSubsystem regenerates Figure 5a: certification
// throughput of 32-byte messages for every trusted-subsystem variant.
func BenchmarkFig5aTrustedSubsystem(b *testing.B) {
	runFigure(b, bench.Fig5a)
}

// BenchmarkFig5aCASHComparison regenerates the §6.1 published-numbers
// comparison: TrInX vs the FPGA-based CASH at 57 µs per operation.
func BenchmarkFig5aCASHComparison(b *testing.B) {
	runFigure(b, bench.CASHReference)
}

// BenchmarkFig5bUnbatchedRotation regenerates Figure 5b: one consensus
// instance per request, rotating proposer, empty payloads.
func BenchmarkFig5bUnbatchedRotation(b *testing.B) {
	runFigure(b, bench.Fig5b)
}

// BenchmarkFig5cBatchedRotation regenerates Figure 5c: batched
// ordering, rotating proposer, empty payloads.
func BenchmarkFig5cBatchedRotation(b *testing.B) {
	runFigure(b, bench.Fig5c)
}

// BenchmarkFig6aLatency0B regenerates Figure 6a: latency vs throughput
// under a client sweep, empty payloads, fixed leader.
func BenchmarkFig6aLatency0B(b *testing.B) {
	runFigure(b, bench.Fig6a)
}

// BenchmarkFig6bLatency1KB regenerates Figure 6b: 1-kilobyte request
// and reply payloads over 1 GbE-modeled links.
func BenchmarkFig6bLatency1KB(b *testing.B) {
	runFigure(b, bench.Fig6b)
}

// BenchmarkFig6cCoordination regenerates Figure 6c: the coordination
// service with 128-byte znodes under a read-rate sweep.
func BenchmarkFig6cCoordination(b *testing.B) {
	runFigure(b, bench.Fig6c)
}

// --- Per-operation microbenchmarks -------------------------------------------

// benchOp measures single-client end-to-end request latency for one
// protocol configuration (a request ordered, executed, and answered by
// f+1 replicas per iteration).
func benchOp(b *testing.B, proto config.Protocol, pillars int) {
	c, err := bench.BuildCluster(proto, pillars, 16, false, enclave.CostModel{},
		transport.LinkProfile{}, func() statemachine.Application { return echo.New(0) })
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient(5 * time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke(nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpHybsterS(b *testing.B) {
	benchOp(b, config.HybsterS, 1)
}

func BenchmarkOpHybsterX(b *testing.B) {
	benchOp(b, config.HybsterX, 4)
}

func BenchmarkOpPBFTcop(b *testing.B) {
	benchOp(b, config.PBFTcop, 4)
}

func BenchmarkOpHybridPBFT(b *testing.B) {
	benchOp(b, config.HybridPBFT, 4)
}

func BenchmarkOpMinBFT(b *testing.B) {
	benchOp(b, config.MinBFT, 1)
}

// --- Trusted subsystem microbenchmarks ----------------------------------------

// BenchmarkTrInXCertify measures one independent-counter certification
// including the simulated SGX transition.
func BenchmarkTrInXCertify(b *testing.B) {
	key := crypto.NewKeyFromSeed("bench")
	tx := trinx.New(enclave.NewPlatform("bench"), trinx.MakeInstanceID(0, 0), 1, key, enclave.DefaultCostModel)
	defer tx.Destroy()
	d := crypto.Hash(make([]byte, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.CreateIndependent(0, uint64(i+1), d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrInXVerify measures certificate verification inside the
// enclave.
func BenchmarkTrInXVerify(b *testing.B) {
	key := crypto.NewKeyFromSeed("bench")
	p := enclave.NewPlatform("bench")
	issuer := trinx.New(p, trinx.MakeInstanceID(0, 0), 1, key, enclave.DefaultCostModel)
	defer issuer.Destroy()
	verifier := trinx.New(p, trinx.MakeInstanceID(1, 0), 1, key, enclave.DefaultCostModel)
	defer verifier.Destroy()
	d := crypto.Hash(make([]byte, 32))
	cert, err := issuer.CreateIndependent(0, 1, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifier.Verify(cert, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUSIGCreateUI measures MinBFT's per-message certification.
func BenchmarkUSIGCreateUI(b *testing.B) {
	key := crypto.NewKeyFromSeed("bench")
	u := usig.New(enclave.NewPlatform("bench"), 0, key, enclave.DefaultCostModel)
	defer u.Destroy()
	d := crypto.Hash(make([]byte, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.CreateUI(d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------------

// ablationLoad runs a short fixed load and reports throughput.
func ablationLoad(b *testing.B, proto config.Protocol, pillars, batch int, rotate bool) {
	for i := 0; i < b.N; i++ {
		c, err := bench.BuildCluster(proto, pillars, batch, rotate, enclave.DefaultCostModel,
			transport.LinkProfile{}, func() statemachine.Application { return echo.New(0) })
		if err != nil {
			b.Fatal(err)
		}
		tput, _, err := bench.RunLoad(bench.ClusterClients(c), 24, 100*time.Millisecond, 400*time.Millisecond,
			func(uint32) workload.Generator { return workload.NewFixed(0, 0) })
		c.Stop()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tput, "ops/s")
	}
}

// BenchmarkAblationBatching contrasts unbatched vs batched ordering
// (the Fig. 5b vs 5c effect) on HybsterX.
func BenchmarkAblationBatching(b *testing.B) {
	b.Run("batch=1", func(b *testing.B) { ablationLoad(b, config.HybsterX, 4, 1, false) })
	b.Run("batch=16", func(b *testing.B) { ablationLoad(b, config.HybsterX, 4, 16, false) })
}

// BenchmarkAblationRotation contrasts fixed vs rotating proposer
// (§6.2).
func BenchmarkAblationRotation(b *testing.B) {
	b.Run("fixed", func(b *testing.B) { ablationLoad(b, config.HybsterX, 4, 16, false) })
	b.Run("rotating", func(b *testing.B) { ablationLoad(b, config.HybsterX, 4, 16, true) })
}

// BenchmarkAblationPhases contrasts two-phase (Hybster) against
// three-phase (PBFT-style) ordering at equal parallelism — the §4.3
// design decision.
func BenchmarkAblationPhases(b *testing.B) {
	b.Run("two-phase/HybsterX", func(b *testing.B) { ablationLoad(b, config.HybsterX, 4, 16, false) })
	b.Run("three-phase/HybridPBFT", func(b *testing.B) { ablationLoad(b, config.HybridPBFT, 4, 16, false) })
}

// BenchmarkAblationEnclaveSharing contrasts multiplied TrInX instances
// against the shared-enclave Multi-TrInX under concurrent callers —
// the §6.1 conclusion that "multiplying the subsystem instead of
// extending it is indeed the better alternative".
func BenchmarkAblationEnclaveSharing(b *testing.B) {
	key := crypto.NewKeyFromSeed("bench")
	const workers = 4
	b.Run("multiplied", func(b *testing.B) {
		p := enclave.NewPlatform("bench")
		certs := make([]trinx.Certifier, workers)
		for i := range certs {
			tx := trinx.New(p, trinx.MakeInstanceID(0, uint32(i)), 1, key, enclave.DefaultCostModel)
			defer tx.Destroy()
			certs[i] = trinx.NewCertifier(tx, "trinx")
		}
		runParallelCertify(b, certs)
	})
	b.Run("shared", func(b *testing.B) {
		p := enclave.NewPlatform("bench")
		host := trinx.NewMultiHost(p, key, enclave.DefaultCostModel)
		defer host.Destroy()
		certs := make([]trinx.Certifier, workers)
		for i := range certs {
			inst, err := host.Instance(trinx.MakeInstanceID(0, uint32(i)), 1)
			if err != nil {
				b.Fatal(err)
			}
			certs[i] = trinx.NewCertifier(inst, "multi-trinx")
		}
		runParallelCertify(b, certs)
	})
}

func runParallelCertify(b *testing.B, certs []trinx.Certifier) {
	msg := make([]byte, 32)
	var next atomic.Int64
	b.ResetTimer()
	b.SetParallelism(len(certs))
	b.RunParallel(func(pb *testing.PB) {
		// Each parallel worker takes its own certifier (round-robin).
		c := certs[int(next.Add(1))%len(certs)]
		for pb.Next() {
			if _, err := c.Certify(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPreventVsDetect contrasts the per-message trusted-
// subsystem work of equivocation prevention (TrInX independent
// certificates, §4.2) against detection (USIG UIs): the mechanisms
// cost the same per call — the difference Hybster exploits is
// architectural (parallelizable counters), not cryptographic.
func BenchmarkAblationPreventVsDetect(b *testing.B) {
	key := crypto.NewKeyFromSeed("bench")
	d := crypto.Hash(make([]byte, 32))
	b.Run("prevent/TrInX", func(b *testing.B) {
		tx := trinx.New(enclave.NewPlatform("bench"), trinx.MakeInstanceID(0, 0), 1, key, enclave.DefaultCostModel)
		defer tx.Destroy()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tx.CreateIndependent(0, uint64(i+1), d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("detect/USIG", func(b *testing.B) {
		u := usig.New(enclave.NewPlatform("bench"), 0, key, enclave.DefaultCostModel)
		defer u.Destroy()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.CreateUI(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterScaling reports HybsterX throughput as pillar count
// grows — the headline §6.2 claim at this host's scale.
func BenchmarkClusterScaling(b *testing.B) {
	for _, pillars := range []int{1, 2, 4} {
		pillars := pillars
		b.Run(config.HybsterX.String()+"-pillars="+itoa(pillars), func(b *testing.B) {
			ablationLoad(b, config.HybsterX, pillars, 16, true)
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

var _ = cluster.Options{} // keep the import for documentation linking
