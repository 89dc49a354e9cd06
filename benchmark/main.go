// Command benchmark is the repository's benchmark (BENCHMARK.json): five
// named workloads against the replication stack, measured from outside
// through its public functions.
//
//	bash benchmark/run.sh -seed 1                       every workload, end to end and traced
//	bash benchmark/run.sh -workload mem-lat-0b -trace 1  one workload's per-layer run
//	bash benchmark/run.sh -aa                            the end-to-end suite twice, compared
//	bash benchmark/run.sh -list
//
// With -workload the last line of standard output is the result object
// the benchmark driver reads. See README.md for every definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybster/benchmark/trace"
)

// traceEvery is the sampling of the traced run: one request in this
// many, chosen by seeded hash, is stamped at every seam. At 1-in-1 the
// recorder's lock and the span volume cost mem-sat-0b more than the 10 %
// the sanity section allows.
const traceEvery = 8

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa, list bool
	scratch  string
	out      string
	commit   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of payload bytes, arrival schedule and trace sampling")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds of measurement per workload and run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "run the end-to-end suite twice on this build and compare against the bounds")
	flag.BoolVar(&o.list, "list", false, "list workloads and metrics, then exit")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for replica data directories")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result and span files")
	flag.StringVar(&o.commit, "commit", "unknown", "commit to stamp results with")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.list {
		printList()
		return nil
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	for _, dir := range []string{o.scratch, o.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
		selected = []workload{*w}
	}

	switch {
	case o.aa:
		return runAA(o, selected)
	case o.workload != "":
		res, err := runOne(o, &selected[0], o.trace == 1)
		if err != nil {
			return err
		}
		if err := writeResult(o, []*result{res}); err != nil {
			return err
		}
		line, err := json.Marshal(res.driverObject())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	default:
		var all []*result
		for i := range selected {
			for _, traced := range []bool{false, true} {
				res, err := runOne(o, &selected[i], traced)
				if err != nil {
					return err
				}
				all = append(all, res)
			}
		}
		return writeResult(o, all)
	}
}

// result is one run of one workload: either its end-to-end metrics
// (untraced) or its per-layer metrics (traced).
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Metrics   map[string]float64 `json:"metrics"`
	// Per measured window: its length, the correct operations per
	// second, and their median latency.
	WindowSeconds []float64 `json:"window_seconds"`
	WindowOps     []float64 `json:"window_ops_per_s"`
	WindowP50     []float64 `json:"window_p50_us"`

	defs []metricDef
}

// endToEndParams are the lengths of an untraced run measuring for
// `seconds`: nine set-ups (they take milliseconds, and their median
// needs the count) and 3 s windows. The closed loops measure one window
// on each of the last five set-ups; failover-durable measures five
// windows on the last one, the crash falling into the first.
func endToEndParams(w *workload, o options) params {
	p := params{seed: o.seed, setups: 9, groups: 1, warmup: time.Second, windows: 1, scratch: o.scratch}
	p.window = time.Duration(o.seconds) * time.Second
	if n := min(o.seconds/3, 5); n > 1 {
		p.window /= time.Duration(n)
		if w.failover {
			p.windows = n
		} else {
			p.groups = n
		}
	}
	return p
}

// runOne measures one workload and prints its metrics.
func runOne(o options, w *workload, traced bool) (*result, error) {
	if !traced {
		p := endToEndParams(w, o)
		m, err := measure(w, p, nil)
		if err != nil {
			return nil, err
		}
		res := newResult(w, false, m, m.endToEndValues(), endToEnd)
		res.print()
		return res, nil
	}

	// The traced run spends a third of its time on an untraced reference
	// (for trace.overhead_share and the tail percentile) and two thirds
	// with the seams installed.
	third := time.Duration(o.seconds) * time.Second / 3
	p := params{seed: o.seed, setups: 1, groups: 1, warmup: time.Second, windows: 1, window: third, scratch: o.scratch}
	probes, prepareBytes, err := runProbes(w, o.scratch)
	if err != nil {
		return nil, err
	}
	plain, err := measure(w, p, nil)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(o.seed, traceEvery)
	p.windows = 2
	tm, err := measure(w, p, rec)
	if err != nil {
		return nil, err
	}
	spans, report := trace.Assemble(rec.Events())
	if err := writeSpans(o, w, spans); err != nil {
		return nil, err
	}
	tr := &tracedRun{w: w, traced: tm, plain: plain, report: report, probes: probes, prepareBytes: prepareBytes}
	layers := tr.layerMetrics()
	res := newResult(w, true, tm, layers, perLayer)
	res.print()
	if share := layers["trace.overhead_share"]; share > maxTraceOverhead {
		fmt.Fprintf(os.Stderr, "benchmark: %s: note: tracing cost %.1f %% of throughput against one untraced window (guide: %.0f %%); if it repeats, raise traceEvery\n",
			w.name, 100*share, 100*maxTraceOverhead)
	}
	if bad := tr.sanity(layers); len(bad) > 0 {
		for _, line := range bad {
			fmt.Fprintf(os.Stderr, "benchmark: %s: sanity: %s\n", w.name, line)
		}
		return nil, fmt.Errorf("%s: %d sanity violation(s)", w.name, len(bad))
	}
	return res, nil
}

func newResult(w *workload, traced bool, m *measurement, metrics map[string]float64, defs []metricDef) *result {
	attempted, failed, _ := m.totals()
	res := &result{Workload: w.name, Traced: traced, Attempted: attempted, Failed: failed,
		FailShare: ratio(float64(failed), float64(attempted)), Metrics: metrics, defs: defs}
	for _, win := range m.windows {
		res.WindowSeconds = append(res.WindowSeconds, win.dur.Seconds())
		res.WindowOps = append(res.WindowOps, win.opsPerSecond())
		res.WindowP50 = append(res.WindowP50, win.p50Micros())
	}
	return res
}

func (r *result) print() {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s  %s\n   per window: ops/s %.0f  p50 µs %.0f\n", r.Workload, kind, r.WindowOps, r.WindowP50)
	for _, d := range r.defs {
		fmt.Printf("   %-36s %16.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	fmt.Printf("   %-36s %16d\n   %-36s %16d\n   %-36s %16.6f\n", "attempted", r.Attempted, "failed", r.Failed, "fail_share", r.FailShare)
}

// driverObject is the last-line object of the builder contract.
func (r *result) driverObject() map[string]any {
	metrics := make(map[string]any, len(r.defs))
	for _, d := range r.defs {
		metrics[d.name] = map[string]any{"value": r.Metrics[d.name], "unit": d.unit}
	}
	return map[string]any{"correct": true, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// writeResult stamps and stores the results of one invocation.
func writeResult(o options, results []*result) error {
	name := "all"
	if o.workload != "" {
		name = fmt.Sprintf("%s-trace%d", o.workload, o.trace)
	}
	doc := map[string]any{
		"commit": o.commit, "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed": o.seed, "seconds": o.seconds, "results": results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d.json", name, o.seed)), append(data, '\n'), 0o644)
}

func writeSpans(o options, w *workload, spans []trace.Span) error {
	f, err := os.Create(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed)))
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-18s %s\n", w.name, w.why)
	}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (gated):", endToEnd}, {"per-layer metrics (-trace 1, ungated):", perLayer}} {
		fmt.Println(group.title)
		for _, d := range group.defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			line := fmt.Sprintf("  %-36s %-6s %s is better", d.name, d.unit, better)
			if d.bound > 0 {
				line += fmt.Sprintf(", may worsen %.0f %%", 100*d.bound)
			}
			fmt.Println(line)
		}
	}
}

// runAA runs the end-to-end suite twice on the same build and fails if
// any gated metric differs between the two by more than its bound.
func runAA(o options, selected []workload) error {
	var runs [2]map[string]*result
	for i := range runs {
		runs[i] = make(map[string]*result)
		for k := range selected {
			res, err := runOne(o, &selected[k], false)
			if err != nil {
				return err
			}
			runs[i][res.Workload] = res
		}
	}
	fmt.Printf("\nA/A: two runs of the same build, seed %d, %d s each\n", o.seed, o.seconds)
	fmt.Printf("%-18s %-14s %14s %14s %9s %7s\n", "workload", "metric", "run A", "run B", "worse by", "bound")
	breaches := 0
	for _, w := range selected {
		for _, d := range endToEnd {
			a, b := runs[0][w.name].Metrics[d.name], runs[1][w.name].Metrics[d.name]
			worse := worsening(d, a, b)
			mark := ""
			if worse > d.bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-14s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.name, d.name, a, b, 100*worse, 100*d.bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d metric(s) moved by more than their bound between two runs of the same build", breaches)
	}
	return nil
}

// worsening is how much worse the worse of two values is than the
// better one, as a share of the better one, in the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if d.higher {
		return ratio(hi-lo, hi)
	}
	return ratio(hi-lo, lo)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
