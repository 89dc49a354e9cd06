// Package stats provides the measurement primitives of the benchmark
// harness: latency recording with percentile extraction and throughput
// accounting, mirroring what the paper's clients measure (§6, "Clients
// measure the time it takes to collect a sufficient number of
// replies ... to calculate the average latency and throughput").
package stats

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultCap bounds a recorder's sample memory (~2 MB of durations).
// Long benchmark windows at millions of ops/s previously grew the
// sample slice without limit; past the cap the recorder switches to
// reservoir sampling, keeping a uniform subset for percentiles while
// count, average, and max stay exact.
const DefaultCap = 1 << 18

// Recorder collects latency samples from concurrent workers. Memory is
// bounded: once cap samples are stored, each further sample replaces a
// random held one with probability cap/seen (Vitter's algorithm R), so
// the reservoir remains a uniform sample of everything recorded.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	seen    uint64        // total Record calls
	total   time.Duration // exact running sum
	max     time.Duration // exact running max
	rng     uint64
	samples []time.Duration
}

// NewRecorder creates an empty recorder with DefaultCap.
func NewRecorder() *Recorder { return newRecorderCap(DefaultCap) }

// newRecorderCap creates a recorder holding at most capSamples
// latencies (<= 0 means unbounded).
func newRecorderCap(capSamples int) *Recorder {
	return &Recorder{cap: capSamples, rng: 0x9e3779b97f4a7c15}
}

// Record adds one latency sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.seen++
	r.total += d
	if d > r.max {
		r.max = d
	}
	if r.cap <= 0 || len(r.samples) < r.cap {
		r.samples = append(r.samples, d)
	} else if j := r.randN(r.seen); j < uint64(r.cap) {
		r.samples[j] = d
	}
	r.mu.Unlock()
}

// randN returns a pseudo-random value in [0, n) from an xorshift64
// stream — deterministic, allocation-free, and plenty uniform for
// reservoir slot selection.
func (r *Recorder) randN(n uint64) uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng % n
}

// Count returns the number of recorded samples (including any the
// reservoir has since evicted).
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.seen)
}

// Summary condenses recorded samples.
type Summary struct {
	Count int
	Avg   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize computes the latency summary; zero-valued for an empty
// recorder. Count, Avg, and Max are exact over everything recorded;
// percentiles come from the (possibly sampled) reservoir.
func (r *Recorder) Summarize() Summary {
	r.mu.Lock()
	samples := make([]time.Duration, len(r.samples))
	copy(samples, r.samples)
	seen, total, max := r.seen, r.total, r.max
	r.mu.Unlock()
	if len(samples) == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(samples)-1))
		return samples[idx]
	}
	return Summary{
		Count: int(seen),
		Avg:   total / time.Duration(seen),
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
		Max:   max,
	}
}

// Throughput converts an operation count over a wall-clock window into
// operations per second.
func Throughput(ops uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// FormatOps renders ops/s in the paper's "1,000 ops/s" style.
func FormatOps(opsPerSec float64) string {
	switch {
	case opsPerSec >= 1_000_000:
		return fmt.Sprintf("%.2fM ops/s", opsPerSec/1e6)
	case opsPerSec >= 1_000:
		return fmt.Sprintf("%.1fk ops/s", opsPerSec/1e3)
	default:
		return fmt.Sprintf("%.0f ops/s", opsPerSec)
	}
}
