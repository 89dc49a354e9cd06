package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"hybster/benchmark/trace"
)

// BENCHMARK.json is what the benchmark driver reads; spec.go is what the
// program reports. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their why differs)", i, got.Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// smoke are the lengths of a run short enough for the test suite.
func smoke(t *testing.T) params {
	return params{seed: 1, setups: 1, groups: 1, warmup: 100 * time.Millisecond, windows: 1, window: 300 * time.Millisecond, scratch: t.TempDir()}
}

// Every fault-free workload runs for 300 ms: the group boots, every
// reply echoes its request, and the end-to-end metrics come out non-zero.
func TestSmokeFaultFreeWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.failover {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			m, err := measure(w, smoke(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			attempted, failed, ops := m.totals()
			if failed != 0 || attempted != ops || ops == 0 {
				t.Fatalf("attempted %d, failed %d, correct %d", attempted, failed, ops)
			}
			for name, v := range m.endToEndValues() {
				if v <= 0 {
					t.Errorf("%s = %v, want a positive value", name, v)
				}
			}
		})
	}
}

// One crash of failover-durable: the leader is crashed and
// restarted cold under open-loop load; no request may fail, the outage
// and the rejoin are measured, and the replicas' execution chains agree.
func TestSmokeFailoverCycle(t *testing.T) {
	p := smoke(t)
	p.window = minCycle
	m, err := measure(findWorkload("failover-durable"), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed, _ := m.totals(); failed != 0 || attempted == 0 {
		t.Fatalf("attempted %d, failed %d", attempted, failed)
	}
	if len(m.outages) != 1 || m.outages[0] < failoverViewChangeTimeout {
		t.Errorf("outages = %v, want one of at least the view-change timeout", m.outages)
	}
	if len(m.rejoins) != 1 {
		t.Errorf("rejoins = %v, want one: the restarted leader must catch up within the cycle", m.rejoins)
	}
	if len(m.genLag) == 0 {
		t.Error("the open loop recorded no generator lag")
	}
	if m.counters["hybster_core_view_changes_total"] == 0 || m.counters["hybster_wal_fsyncs_total"] == 0 {
		t.Error("a crash cycle on durable replicas must show view changes and fsyncs")
	}
}

// The traced run joins the stamps of the three seams into stages that
// tile the client-observed latency, and its sanity section holds.
func TestSmokeTracedRun(t *testing.T) {
	w := findWorkload("mem-lat-0b")
	p := smoke(t)
	plain, err := measure(w, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(p.seed, 2)
	tm, err := measure(w, p, rec)
	if err != nil {
		t.Fatal(err)
	}
	_, report := trace.Assemble(rec.Events())
	if report.Requests < 100 {
		t.Fatalf("%d traced requests in 300 ms of 1-in-2 sampling", report.Requests)
	}
	if share := report.ResidualShare(); share > 0.02 {
		t.Errorf("stage.residual_share = %.4f (%d of %d requests incomplete), want at most 0.02", share, report.Incomplete, report.Requests)
	}
	probes, prepareBytes, err := runProbes(w, p.scratch)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracedRun{w: w, traced: tm, plain: plain, report: report, probes: probes, prepareBytes: prepareBytes}
	layers := tr.layerMetrics()
	for _, d := range perLayer {
		if _, ok := layers[d.name]; !ok {
			t.Errorf("layerMetrics does not report %s", d.name)
		}
	}
	if bad := tr.sanity(layers); len(bad) > 0 {
		t.Errorf("sanity: %v", bad)
	}
	if layers["transport.msgs_per_op"] == 0 || layers["trinx.ecalls_per_op"] == 0 || layers["stage.agree_us"] == 0 {
		t.Errorf("a HybsterX run shows no messages, ECALLs or agreement time: %v", layers)
	}
}

func TestSanityFlagsBrokenBypassFacts(t *testing.T) {
	tr := &tracedRun{w: findWorkload("pbft-sat-0b")}
	bad := tr.sanity(map[string]float64{
		"trinx.ecalls_per_op": 0.5, "message.marshals_per_op": 1, "core.view_changes": 2, "core.reqs_per_batch": 40,
	})
	if len(bad) != 4 {
		t.Errorf("want four violations (ECALLs on PBFTcop, marshals on memnet, a view change, an impossible batch), got %q", bad)
	}
	tr = &tracedRun{w: findWorkload("mem-sat-0b")}
	if bad := tr.sanity(map[string]float64{"core.reqs_per_batch": 3}); len(bad) != 1 {
		t.Errorf("want one violation for thin batches at saturation, got %q", bad)
	}
}

func TestAgreementCheck(t *testing.T) {
	marks := func(at map[uint64]uint64, last uint64) *chainMarks { return &chainMarks{at: at, last: last} }
	ok := []*chainMarks{
		marks(map[uint64]uint64{64: 7, 128: 9}, 130),
		marks(map[uint64]uint64{128: 9, 192: 4}, 200), // joined by state transfer: no mark at 64
		marks(map[uint64]uint64{}, 10),
	}
	if err := checkAgreement(ok, 200); err != nil {
		t.Errorf("agreeing replicas rejected: %v", err)
	}
	if err := checkAgreement(ok, 201); err == nil {
		t.Error("201 acknowledged operations but only 200 executed: an acknowledged operation is missing")
	}
	forked := []*chainMarks{marks(map[uint64]uint64{64: 7}, 64), marks(map[uint64]uint64{64: 8}, 64), marks(nil, 0)}
	if err := checkAgreement(forked, 0); err == nil {
		t.Error("replicas with different chains at execution 64 accepted")
	}
	amnesiac := []*chainMarks{marks(nil, 0), marks(nil, 0), marks(nil, 0)}
	amnesiac[1].diverged = "execution 64: chain 1 now, 2 before the restart"
	if err := checkAgreement(amnesiac, 0); err == nil {
		t.Error("a replica that contradicts its own pre-restart chain accepted")
	}
}

// The chain travels with the snapshot: a replica restored from another's
// snapshot continues the same chain.
func TestChainAppSnapshotCarriesChain(t *testing.T) {
	g := &group{marks: []*chainMarks{{at: map[uint64]uint64{}}, {at: map[uint64]uint64{}}}}
	a, b := g.newApp(0), g.newApp(1)
	for i := 0; i < 100; i++ {
		a.Execute(70000, []byte{byte(i)}, false)
	}
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		a.Execute(70001, []byte{byte(i)}, false)
		b.Execute(70001, []byte{byte(i)}, false)
	}
	if g.marks[0].at[128] == 0 || g.marks[0].at[128] != g.marks[1].at[128] || g.marks[0].at[192] != g.marks[1].at[192] {
		t.Errorf("chains differ after restore: %v vs %v", g.marks[0].at, g.marks[1].at)
	}
	if err := checkAgreement(g.marks, 200); err != nil {
		t.Error(err)
	}
	if err := b.Restore([]byte{1, 2, 3}); err == nil {
		t.Error("a snapshot without the chain header was accepted")
	}
}

func TestWorsening(t *testing.T) {
	higher, lower := metricDef{higher: true}, metricDef{}
	if got := worsening(higher, 100, 90); got != 0.1 {
		t.Errorf("throughput 100 → 90 worsens by %v", got)
	}
	if got := worsening(lower, 110, 100); got < 0.0999 || got > 0.1001 {
		t.Errorf("latency 100 → 110 worsens by %v", got)
	}
}
