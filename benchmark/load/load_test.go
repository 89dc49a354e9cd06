package load

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // p75 of 39 leaves 9
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{99999, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianMeanQuantile(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if Median(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	sorted := []int64{10, 20, 30, 40}
	if got := Quantile(sorted, 0.5); got != 30 {
		t.Errorf("p50 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 40 {
		t.Errorf("p100 = %v", got)
	}
}

func TestScheduleIsSeededAndHasTheRate(t *testing.T) {
	a := Schedule(3, 2000, time.Second)
	b := Schedule(3, 2000, time.Second)
	c := Schedule(4, 2000, time.Second)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes its predecessor", i)
		}
		if same && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("another seed gave the same schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 1 s at 2000/s", len(a))
	}
	if last := a[len(a)-1]; last >= int64(time.Second) {
		t.Errorf("arrival at %d ns is beyond the horizon", last)
	}
}

// TestOpenLoopTimesFromDueTime stalls the system under test: the single
// client blocks 30 ms in its first operation while four more operations
// fall due. An open loop must release them on schedule regardless
// (small generator lag) and charge each one the wait the stall imposed
// (latency measured from its due time, not from when a client got to it).
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const ms = int64(time.Millisecond)
	due := []int64{0, 5 * ms, 10 * ms, 15 * ms, 20 * ms}
	stall := 30 * time.Millisecond
	var calls atomic.Int64
	op := func(int, uint64) error {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	epoch := time.Now()
	log := RunOpen(1, due, op, epoch)

	if len(log.GenLag) != len(due) {
		t.Fatalf("%d lag samples for %d operations", len(log.GenLag), len(due))
	}
	for i, lag := range log.GenLag {
		if lag < 0 || lag > 5*ms {
			t.Errorf("operation %d released %d ns after its due time; the dispatcher must not wait for the stalled client", i, lag)
		}
	}
	samples := log.PerClient[0]
	if len(samples) != len(due) {
		t.Fatalf("%d samples for %d operations", len(samples), len(due))
	}
	for i, s := range samples {
		if s.Start != due[i] {
			t.Errorf("sample %d starts at %d, want its due time %d", i, s.Start, due[i])
		}
		if s.End < int64(stall) {
			t.Errorf("sample %d ended at %d ns, before the stall was over", i, s.End)
		}
	}
	// The operation due at 20 ms waited ~10 ms for the stall to end.
	if wait := samples[4].End - samples[4].Start; wait < 9*ms {
		t.Errorf("operation due during the stall shows %d ns latency; its queue wait is missing", wait)
	}
	if first, ok := log.FirstStartedAfter(12 * ms); !ok || first.Start != 15*ms {
		t.Errorf("first operation due after 12 ms = %+v, %v; want the one due at 15 ms", first, ok)
	}
	w := log.Window(0, int64(time.Since(epoch))+1)
	if w.Attempted != 5 || w.Failed != 0 || len(w.Latencies) != 5 {
		t.Errorf("window = %+v", w)
	}
	for i := 1; i < len(w.Latencies); i++ {
		if w.Latencies[i] < w.Latencies[i-1] {
			t.Error("window latencies are not ascending")
		}
	}
}

// A closed-loop client that hits an error keeps offering load, and the
// failure is counted against the attempts of the window it fell in.
func TestClosedLoopCountsFailuresAndCarriesOn(t *testing.T) {
	boom := errors.New("boom")
	op := func(c int, n uint64) error {
		time.Sleep(200 * time.Microsecond)
		if c == 0 && n == 2 {
			return boom
		}
		return nil
	}
	stop := make(chan struct{})
	epoch := time.Now()
	time.AfterFunc(30*time.Millisecond, func() { close(stop) })
	log := RunClosed(2, op, epoch, stop)

	if !errors.Is(log.FirstErr, boom) {
		t.Errorf("FirstErr = %v", log.FirstErr)
	}
	if n := len(log.PerClient[0]); n < 3 {
		t.Fatalf("client 0 stopped after %d operations; it must carry on past a failure", n)
	}
	if !log.PerClient[0][1].Failed || log.PerClient[0][2].Failed {
		t.Error("the failure is not on the operation that failed")
	}
	w := log.Window(0, int64(time.Minute))
	total := len(log.PerClient[0]) + len(log.PerClient[1])
	if w.Attempted != total || w.Failed != 1 || len(w.Latencies) != total-1 {
		t.Errorf("window = attempted %d failed %d correct %d; want %d, 1, %d", w.Attempted, w.Failed, len(w.Latencies), total, total-1)
	}
	// Samples are attributed to the window they COMPLETED in.
	cut := log.PerClient[1][0].End + 1
	early, late := log.Window(0, cut), log.Window(cut, int64(time.Minute))
	if early.Attempted+late.Attempted != total {
		t.Errorf("windows split %d+%d of %d samples", early.Attempted, late.Attempted, total)
	}
}
