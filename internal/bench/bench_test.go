package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"hybster/internal/apps/echo"
	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/transport"
	"hybster/internal/workload"
)

// quickOpts keeps harness tests fast: tiny windows, reduced sweeps.
func quickOpts() Options {
	return Options{Duration: 150 * time.Millisecond, Clients: 8, Quick: true}
}

func endless(uint32) workload.Generator { return workload.NewFixed(0, 0) }

func TestRunLoadAllProtocols(t *testing.T) {
	for _, proto := range append(Specs(), config.MinBFT) {
		t.Run(proto.String(), func(t *testing.T) {
			cl, err := BuildCluster(proto, 2, 8, false, enclave.CostModel{},
				transport.LinkProfile{}, func() statemachine.Application { return echo.New(0) })
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			tput, lat, err := RunLoad(ClusterClients(cl), 4, 30*time.Millisecond, 200*time.Millisecond, endless)
			if err != nil {
				t.Fatal(err)
			}
			if tput <= 0 {
				t.Fatalf("throughput = %f", tput)
			}
			if lat.Count == 0 || lat.Avg <= 0 {
				t.Fatalf("latency = %+v", lat)
			}
			if lat.P50 > lat.P99 || lat.P99 > lat.Max {
				t.Fatalf("percentiles inconsistent: %+v", lat)
			}
			// Only PBFTcop runs without a trusted subsystem.
			if n := ecallsPerRequest(cl); (n == 0) != (proto == config.PBFTcop) {
				t.Fatalf("ecalls/req = %v", n)
			}
			if n := reqsPerBatch(cl); n <= 0 {
				t.Fatalf("reqs/batch = %v", n)
			}
		})
	}
}

// blackhole is an endpoint that drops every frame.
type blackhole struct{ id uint32 }

func (b blackhole) ID() uint32                       { return b.id }
func (blackhole) Handle(transport.Handler)           {}
func (blackhole) Send(uint32, message.Message) error { return nil }
func (blackhole) Close() error                       { return nil }

// TestRunLoadReportsLostClient: a client whose operations fail must
// fail the run, named, instead of silently dropping out of it and
// deflating the reported throughput.
func TestRunLoadReportsLostClient(t *testing.T) {
	cfg := config.Default(config.HybsterX)
	next := uint32(crypto.ClientIDBase)
	lost := func() (*client.Client, error) {
		next++
		return client.New(client.Options{Config: cfg, ID: next, Endpoint: blackhole{next},
			Timeout: 5 * time.Millisecond, Retries: 1})
	}
	_, lat, err := RunLoad(lost, 2, 0, 200*time.Millisecond, endless)
	if err == nil || !strings.Contains(err.Error(), "client 6553") {
		t.Fatalf("err = %v, want a failure naming the client", err)
	}
	if errors.Is(err, client.ErrClosed) || lat.Count != 0 {
		t.Fatalf("err = %v, samples = %d", err, lat.Count)
	}
}

// TestRunLoadOverTCP drives an in-process replica group over loopback
// TCP — the path cmd/hybster-client takes — with an op-bounded
// generator: the run ends with the generators, well inside the window,
// and records every operation exactly once.
func TestRunLoadOverTCP(t *testing.T) {
	cfg := config.Default(config.HybsterX)
	addrs := make([]string, cfg.N)
	eps := make([]*transport.TCPEndpoint, cfg.N)
	for i := range eps {
		ep, err := transport.NewTCP(uint32(i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i], addrs[i] = ep, ep.Addr()
	}
	for i, ep := range eps {
		for j, a := range addrs {
			if j != i {
				ep.AddPeer(uint32(j), a)
			}
		}
		r, err := cluster.NewEngine(cfg, uint32(i), ep,
			cluster.NodeEnv{Platform: enclave.NewPlatform(fmt.Sprintf("replica-%d", i))}, echo.New(0), enclave.CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		defer r.Stop()
	}
	next := uint32(crypto.ClientIDBase)
	dial := func() (*client.Client, error) {
		next++
		ep, err := transport.NewTCP(next, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		for j, a := range addrs {
			ep.AddPeer(uint32(j), a)
		}
		return client.New(client.Options{Config: cfg, ID: next, Endpoint: ep})
	}

	const clients, ops = 3, 40
	start := time.Now()
	tput, lat, err := RunLoad(dial, clients, 0, time.Minute,
		func(uint32) workload.Generator { return workload.NewFixed(16, ops) })
	if err != nil {
		t.Fatal(err)
	}
	if lat.Count != clients*ops || tput <= 0 {
		t.Fatalf("recorded %d samples at %.0f ops/s, want %d", lat.Count, tput, clients*ops)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("bounded run took %v: RunLoad waited out the window", took)
	}
}

func TestFig5aQuick(t *testing.T) {
	points, err := Fig5a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 6 variants × 2 core settings in quick mode.
	if len(points) != 12 {
		t.Fatalf("points = %d", len(points))
	}
	byName := map[string][]Point{}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("%s x=%v: zero throughput", p.Series, p.X)
		}
		byName[p.Series] = append(byName[p.Series], p)
	}
	// Scaling with worker count only manifests with at least as many
	// physical cores as workers, which this host may not have; here we
	// only assert the series are complete and sane. The shape checks
	// live in EXPERIMENTS.md against full runs.
	for name, series := range byName {
		if len(series) != 2 {
			t.Errorf("%s: %d points", name, len(series))
		}
	}
}

func TestCASHReference(t *testing.T) {
	points, err := CASHReference(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	cash, trinx := points[0], points[1]
	// The paper: CASH ≈ 17.5k, TrInX ≈ 240k — TrInX must dominate.
	if trinx.Throughput < 2*cash.Throughput {
		t.Errorf("TrInX (%f) not clearly above CASH (%f)", trinx.Throughput, cash.Throughput)
	}
	// CASH is bounded by its 57µs service time.
	if cash.Throughput > 1e6/57*1.2 {
		t.Errorf("CASH above its physical limit: %f", cash.Throughput)
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	points := []Point{
		{Series: "HybsterX", X: 4, Throughput: 123456, ECallsPerReq: 1.3333, ReqsPerBatch: 6.754},
		{Series: "Multi-TrInX (native)", X: 1, Throughput: 1},
		{Series: "CASH (57µs, published)", X: 1, Throughput: 1},
	}
	var buf bytes.Buffer
	WriteTable(&buf, "Fig test", "cores", points)
	if !strings.Contains(buf.String(), "HybsterX") || !strings.Contains(buf.String(), "123.5k") ||
		!strings.Contains(buf.String(), "ecalls/req") || !strings.HasSuffix(strings.Split(buf.String(), "\n")[2], " 1.33        6.75") {
		t.Fatalf("table output:\n%s", buf.String())
	}
	// Every row, header included, puts its x value in the same column,
	// however long the series name.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	col := strings.Index(lines[0], "cores") + len("cores")
	for _, l := range lines[1:] {
		if r := []rune(l); len(r) < col || r[col-1] != '0' || r[col] != ' ' {
			t.Fatalf("x column not at %d in %q:\n%s", col, l, buf.String())
		}
	}
	// reqs/batch is the last column, right-aligned under its header; a
	// point without a replicated system shows "-".
	for _, l := range lines[1:] {
		if n, want := utf8.RuneCountInString(l), utf8.RuneCountInString(lines[0]); n != want {
			t.Fatalf("row %q is %d runes wide, header %d:\n%s", l, n, want, buf.String())
		}
	}
	if !strings.HasSuffix(lines[0], " reqs/batch") || !strings.HasSuffix(lines[2], " -           -") {
		t.Fatalf("reqs/batch column:\n%s", buf.String())
	}
	buf.Reset()
	WriteCSV(&buf, points[:1])
	if !strings.Contains(buf.String(), "reqs_per_batch\n") || !strings.Contains(buf.String(), "HybsterX,4,123456.0,0,0,0,1.333,6.754") {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}
