// Command hybster-bench regenerates the figures of the paper's
// evaluation section (§6) on the in-process cluster fabric.
//
// Usage:
//
//	hybster-bench -figure 5b                 # one figure
//	hybster-bench -figure all -duration 10s  # everything, longer windows
//	hybster-bench -figure 6c -csv            # machine-readable output
//
// Figures: 5a (trusted subsystem), 5b (unbatched throughput),
// 5c (batched throughput), 6a (latency, 0 B), 6b (latency, 1 kB),
// 6c (coordination service), cash (§6.1 CASH comparison), minbft
// (sequential baselines). Absolute numbers depend on the host; compare
// shapes against the paper (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hybster/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "figure to run: 5a, 5b, 5c, 6a, 6b, 6c, cash, minbft, all")
	duration := flag.Duration("duration", time.Second, "measured window per data point")
	clients := flag.Int("clients", 48, "closed-loop clients for throughput figures")
	quick := flag.Bool("quick", false, "reduced sweep resolution (smoke test)")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	flag.Parse()

	opts := bench.Options{Duration: *duration, Clients: *clients, Quick: *quick}

	figs := []struct {
		name, title, xLabel string
		run                 func(bench.Options) ([]bench.Point, error)
	}{
		{"5a", "Figure 5a — trusted subsystem, certifying 32-byte messages", "cores", bench.Fig5a},
		{"5b", "Figure 5b — 0 bytes, unbatched, rotation", "cores", bench.Fig5b},
		{"5c", "Figure 5c — 0 bytes, batched, rotation", "cores", bench.Fig5c},
		{"6a", "Figure 6a — 0 bytes, batched, no rotation (latency vs throughput)", "clients", bench.Fig6a},
		{"6b", "Figure 6b — 1 kilobyte, batched, no rotation (latency vs throughput)", "clients", bench.Fig6b},
		{"6c", "Figure 6c — coordination service (128 bytes), read-rate sweep", "read-%", bench.Fig6c},
		{"cash", "§6.1 — TrInX vs published CASH numbers", "-", bench.CASHReference},
		{"minbft", "Extension — sequential baselines head to head (HybsterS vs MinBFT)", "batch", bench.SequentialBaselines},
	}

	ran := false
	for _, f := range figs {
		if *figure != "all" && *figure != f.name {
			continue
		}
		ran = true
		points, err := f.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		if *csv {
			bench.WriteCSV(os.Stdout, points)
		} else {
			bench.WriteTable(os.Stdout, f.title, f.xLabel, points)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		flag.Usage()
		os.Exit(2)
	}
}
