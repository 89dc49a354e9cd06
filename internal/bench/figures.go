package bench

import (
	"fmt"
	"time"

	"hybster/internal/apps/coordination"
	"hybster/internal/apps/echo"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/statemachine"
	"hybster/internal/stats"
	"hybster/internal/transport"
	"hybster/internal/trinx"
	"hybster/internal/workload"
)

// maxCores is the core sweep limit of Figs. 5a-5c (the paper's
// machines have four cores).
const maxCores = 4

// threadsPerCore models the Hyper-Threading of the paper's setup
// ("number of cores (2 hardware threads each)").
const threadsPerCore = 2

// --- Figure 5a: trusted subsystem -------------------------------------------

// fig5aPoint is what the workers of one Fig. 5a data point share: a
// platform and a Multi-TrInX enclave of the point's own, dropped with
// it, so nothing is torn down.
type fig5aPoint struct {
	platform *enclave.Platform
	host     *trinx.MultiHost
	key      crypto.Key
}

func (pt fig5aPoint) trinx(id trinx.InstanceID) *trinx.TrInX {
	return trinx.New(pt.platform, id, 1, pt.key, enclave.DefaultCostModel)
}

// fig5aVariants are the series of Fig. 5a, each with how one worker of
// a data point gets its certifier.
var fig5aVariants = []struct {
	name string
	cert func(pt fig5aPoint, id trinx.InstanceID) (trinx.Certifier, error)
}{
	{"TrInX (native)", func(pt fig5aPoint, id trinx.InstanceID) (trinx.Certifier, error) {
		return trinx.NewCertifier(pt.trinx(id), "TrInX (native)"), nil
	}},
	{"TrInX (JNI)", func(pt fig5aPoint, id trinx.InstanceID) (trinx.Certifier, error) {
		return trinx.NewCertifier(pt.trinx(id).WithBridge(), "TrInX (JNI)"), nil
	}},
	{"Multi-TrInX (native)", func(pt fig5aPoint, id trinx.InstanceID) (trinx.Certifier, error) {
		inst, err := pt.host.Instance(id, 1)
		return trinx.NewCertifier(inst, "Multi-TrInX (native)"), err
	}},
	{"TCrypto (native)", library(trinx.NewTCryptoProfile)},
	{"OpenSSL (native)", library(trinx.NewOpenSSLProfile)},
	{"Java", library(trinx.NewJavaProfile)},
}

// library adapts a crypto-library profile, which needs no enclave, to
// the variant table.
func library(profile func(crypto.Key) *trinx.LibraryProfile) func(fig5aPoint, trinx.InstanceID) (trinx.Certifier, error) {
	return func(pt fig5aPoint, _ trinx.InstanceID) (trinx.Certifier, error) { return profile(pt.key), nil }
}

// runCertifiers measures aggregate certification throughput of 32-byte
// messages across certs, one goroutine per certifier.
func runCertifiers(certs []trinx.Certifier, duration time.Duration) (float64, error) {
	msg := make([]byte, 32)
	steps := make([]func(bool) error, len(certs))
	for i, c := range certs {
		steps[i] = func(bool) error {
			_, err := c.Certify(msg)
			return err
		}
	}
	ops, elapsed, err := measureWindow(steps, warmup, duration, func() {})
	return stats.Throughput(ops, elapsed), err
}

// Fig5a measures trusted-subsystem certification throughput over
// 32-byte messages for 1..4 cores (2 worker threads each), for every
// variant of §6.1.
func Fig5a(opts Options) ([]Point, error) {
	key := crypto.NewKeyFromSeed("fig5a")
	var out []Point
	for _, v := range fig5aVariants {
		for _, cores := range coreSweep(opts) {
			p := enclave.NewPlatform("fig5a")
			pt := fig5aPoint{p, trinx.NewMultiHost(p, key, enclave.DefaultCostModel), key}
			certs := make([]trinx.Certifier, int(cores)*threadsPerCore)
			for i := range certs {
				var err error
				if certs[i], err = v.cert(pt, trinx.MakeInstanceID(0, uint32(i))); err != nil {
					return nil, fmt.Errorf("%s cores=%g: %w", v.name, cores, err)
				}
			}
			tput, err := runCertifiers(certs, opts.Duration)
			if err != nil {
				return nil, fmt.Errorf("%s cores=%g: %w", v.name, cores, err)
			}
			out = append(out, Point{Series: v.name, X: cores, Throughput: tput})
		}
	}
	return out, nil
}

// CASHReference returns the published comparison point of §6.1: the
// FPGA-based CASH subsystem at 57 µs per certification over a single
// channel, next to one measured single-instance TrInX.
func CASHReference(opts Options) ([]Point, error) {
	key := crypto.NewKeyFromSeed("fig5a")
	inst := trinx.New(enclave.NewPlatform("cash-ref"), trinx.MakeInstanceID(0, 0), 1, key, enclave.DefaultCostModel)
	var out []Point
	for _, c := range []struct {
		series string
		cert   trinx.Certifier
	}{
		{"CASH (57µs, published)", trinx.NewCASHProfile(key)},
		{"TrInX (single instance)", trinx.NewCertifier(inst, "TrInX")},
	} {
		tput, err := runCertifiers([]trinx.Certifier{c.cert}, opts.Duration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.series, err)
		}
		out = append(out, Point{Series: c.series, X: 1, Throughput: tput})
	}
	return out, nil
}

// --- Figures 5b-6c: the replicated system ------------------------------------

// load is one data point's setup: the cluster to boot and the
// closed-loop clients to drive it with.
type load struct {
	cores, batch, clients int
	rotate                bool
	profile               transport.LinkProfile
	app                   func() statemachine.Application
	gen                   func(clientID uint32) workload.Generator
}

// echo completes l as the microbenchmark: payload-byte requests
// answered by payload-byte replies.
func (l load) echo(payload int) load {
	l.app = func() statemachine.Application { return echo.New(payload) }
	l.gen = func(uint32) workload.Generator { return workload.NewFixed(payload, 0) }
	return l
}

// measure boots proto under l, drives it through one RunLoad window
// and stops it; the point's ECALLs per request and requests per batch
// are read off the stopped cluster.
func measure(proto config.Protocol, duration time.Duration, l load) (Point, error) {
	c, err := BuildCluster(proto, l.cores, l.batch, l.rotate, enclave.DefaultCostModel, l.profile, l.app)
	if err != nil {
		return Point{}, err
	}
	tput, lat, err := RunLoad(ClusterClients(c), l.clients, warmup, duration, l.gen)
	c.Stop()
	return Point{Throughput: tput, Latency: lat, ECallsPerReq: ecallsPerRequest(c), ReqsPerBatch: reqsPerBatch(c)}, err
}

// ecallsPerRequest divides the replicas' trusted-subsystem ECALLs
// (TrInX, or MinBFT's USIG) by the requests they executed, both lifetime
// counters summed over the group, so no window has to line them up: the
// enclave transitions one replica pays per request. 0 for PBFTcop,
// which has no trusted subsystem.
func ecallsPerRequest(c *cluster.Cluster) float64 {
	reqs := engineSum(c, "exec_requests_total")
	if reqs == 0 {
		return 0
	}
	return c.MetricSum("hybster_trinx_ecalls_total", "hybster_usig_ecalls_total") / reqs
}

// reqsPerBatch divides the requests the replicas executed by the
// instances they executed, lifetime counters summed over the group like
// ecallsPerRequest's: how far the sequencers' batching amortised each
// instance. 0 before anything executed.
func reqsPerBatch(c *cluster.Cluster) float64 {
	batches := engineSum(c, "exec_batches_total")
	if batches == 0 {
		return 0
	}
	return engineSum(c, "exec_requests_total") / batches
}

// engineSum sums one counter of the protocol engines' metrics over the
// group, whichever protocol it runs.
func engineSum(c *cluster.Cluster, counter string) float64 {
	return c.MetricSum("hybster_core_"+counter, "hybster_pbft_"+counter, "hybster_minbft_"+counter)
}

// sweep measures every protocol at every x of a figure's axis.
func sweep(opts Options, protos []config.Protocol, xs []float64, at func(x float64) load) ([]Point, error) {
	var out []Point
	for _, proto := range protos {
		for _, x := range xs {
			p, err := measure(proto, opts.Duration, at(x))
			if err != nil {
				return nil, fmt.Errorf("%s x=%g: %w", proto, x, err)
			}
			p.Series, p.X = proto.String(), x
			out = append(out, p)
		}
	}
	return out, nil
}

func coreSweep(opts Options) []float64 {
	if opts.Quick {
		return []float64{1, maxCores}
	}
	return []float64{1, 2, 3, 4}
}

// Fig5b: empty requests, unbatched (one instance per request), rotating
// leader, all four configurations over the core sweep.
func Fig5b(opts Options) ([]Point, error) {
	return sweep(opts, Specs(), coreSweep(opts), func(cores float64) load {
		return load{cores: int(cores), batch: 1, clients: opts.Clients, rotate: true}.echo(0)
	})
}

// Fig5c: empty requests, batched, rotating leader.
func Fig5c(opts Options) ([]Point, error) {
	return sweep(opts, Specs(), coreSweep(opts), func(cores float64) load {
		return load{cores: int(cores), batch: 16, clients: opts.Clients, rotate: true}.echo(0)
	})
}

// clientSweep sweeps closed-loop client counts to saturation: with the
// (throughput, latency) pairs it yields, the axes of Figs. 6a/6b.
func clientSweep(opts Options) []float64 {
	if opts.Quick {
		return []float64{4, 32}
	}
	return []float64{1, 2, 4, 8, 16, 32, 64, 128}
}

// Fig6a: empty payload, batched, fixed leader.
func Fig6a(opts Options) ([]Point, error) {
	return sweep(opts, Specs(), clientSweep(opts), func(clients float64) load {
		return load{cores: maxCores, batch: 16, clients: int(clients)}.echo(0)
	})
}

// Fig6b: 1 kB request and reply payloads; links carry the 1 GbE
// bandwidth of the paper's testbed so the network becomes a secondary
// limit, as §6.3 observes.
func Fig6b(opts Options) ([]Point, error) {
	return sweep(opts, Specs(), clientSweep(opts), func(clients float64) load {
		return load{cores: maxCores, batch: 16, clients: int(clients),
			profile: transport.LinkProfile{Bandwidth: 125_000_000}}.echo(1024)
	})
}

// SequentialBaselines compares the two sequential hybrid protocols —
// Hybster's basic protocol and MinBFT — head to head, unbatched and
// batched. The paper argues (§6, "Subjects") that HybsterS always
// reaches at least MinBFT's performance because MinBFT must
// additionally process every incoming message in counter order; this
// extension experiment measures the claim directly.
func SequentialBaselines(opts Options) ([]Point, error) {
	return sweep(opts, []config.Protocol{config.HybsterS, config.MinBFT}, []float64{1, 16}, func(batch float64) load {
		return load{cores: 1, batch: int(batch), clients: opts.Clients}.echo(0)
	})
}

// Fig6c: the ZooKeeper-inspired coordination service storing and
// retrieving 128-byte znodes, read percentage swept, fixed leader.
func Fig6c(opts Options) ([]Point, error) {
	reads := []float64{0, 25, 50, 75, 100}
	if opts.Quick {
		reads = []float64{0, 100}
	}
	return sweep(opts, Specs(), reads, func(read float64) load {
		return load{cores: maxCores, batch: 16, clients: opts.Clients,
			app: func() statemachine.Application { return coordination.New() },
			gen: func(clientID uint32) workload.Generator {
				return workload.NewCoordination(clientID, read/100, 128, 16)
			}}
	})
}
