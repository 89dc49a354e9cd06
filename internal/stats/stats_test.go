package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	s := r.Summarize()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Avg != 50500*time.Microsecond {
		t.Fatalf("Avg = %v", s.Avg)
	}
	if s.P50 < 49*time.Millisecond || s.P50 > 51*time.Millisecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 < 98*time.Millisecond || s.P99 > 100*time.Millisecond {
		t.Fatalf("P99 = %v", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("Max = %v", s.Max)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Fatalf("percentiles out of order: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := NewRecorder().Summarize(); s.Count != 0 || s.Avg != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("Count = %d", r.Count())
	}
}

// TestRecorderReservoirBounded pins the memory bound and the sampling
// accuracy: past the cap the recorder must hold exactly cap samples,
// keep count/avg/max exact, and still estimate percentiles of the full
// stream to within a few percent. Samples arrive in ascending order —
// the worst case for a biased reservoir, since a naive "keep the first
// cap" would report only the low tail.
func TestRecorderReservoirBounded(t *testing.T) {
	const cap, n = 2000, 200_000
	r := newRecorderCap(cap)
	for i := 1; i <= n; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}

	r.mu.Lock()
	held := len(r.samples)
	r.mu.Unlock()
	if held != cap {
		t.Fatalf("reservoir holds %d samples, want exactly %d", held, cap)
	}

	s := r.Summarize()
	if s.Count != n {
		t.Fatalf("Count = %d, want %d (exact despite sampling)", s.Count, n)
	}
	if s.Max != n*time.Microsecond {
		t.Fatalf("Max = %v, want %v (exact despite sampling)", s.Max, n*time.Microsecond)
	}
	wantAvg := time.Duration(n) * (time.Duration(n) + 1) / 2 * time.Microsecond / time.Duration(n)
	if s.Avg != wantAvg {
		t.Fatalf("Avg = %v, want %v (exact despite sampling)", s.Avg, wantAvg)
	}

	// The true stream is uniform over [1µs, 200ms], so percentile p sits
	// at p*n µs. With 2000 uniformly sampled points the order-statistic
	// error is well under 5%.
	within := func(name string, got time.Duration, p float64) {
		want := time.Duration(p*n) * time.Microsecond
		lo, hi := want*95/100, want*105/100
		if got < lo || got > hi {
			t.Errorf("%s = %v, want %v ±5%% (reservoir biased?)", name, got, want)
		}
	}
	within("P50", s.P50, 0.50)
	within("P90", s.P90, 0.90)
	within("P99", s.P99, 0.99)
}

// TestRecorderUnboundedCap pins that cap<=0 disables sampling.
func TestRecorderUnboundedCap(t *testing.T) {
	r := newRecorderCap(0)
	for i := 0; i < 3*DefaultCap/2; i++ {
		r.Record(time.Microsecond)
	}
	r.mu.Lock()
	held := len(r.samples)
	r.mu.Unlock()
	if held != 3*DefaultCap/2 {
		t.Fatalf("unbounded recorder dropped samples: held %d of %d", held, 3*DefaultCap/2)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
	if got := Throughput(500, 500*time.Millisecond); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("Throughput(_, 0) = %f", got)
	}
}

func TestFormatOps(t *testing.T) {
	cases := map[float64]string{
		500:       "500 ops/s",
		12_345:    "12.3k ops/s",
		1_040_000: "1.04M ops/s",
	}
	for in, want := range cases {
		if got := FormatOps(in); got != want {
			t.Errorf("FormatOps(%f) = %q, want %q", in, got, want)
		}
	}
	if !strings.Contains(FormatOps(1e6), "M") {
		t.Error("1e6 not in millions")
	}
}
