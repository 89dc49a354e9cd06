package load

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"
)

// Op performs the n-th operation (1-based) of logical client c and
// returns an error when it failed or its output was wrong.
type Op func(c int, n uint64) error

// Sample is one finished operation. Times are nanoseconds since the
// generator's epoch. Start is when a closed-loop client issued the
// operation, or when an open-loop operation was DUE — so an open-loop
// latency contains the wait a stall imposed on it.
type Sample struct {
	Start, End int64
	Failed     bool
}

// Log is everything a generator run observed.
type Log struct {
	// PerClient holds each logical client's samples in completion order.
	PerClient [][]Sample
	// GenLag is, per dispatched open-loop operation, how long after its
	// due time the dispatcher released it (empty for closed loops).
	GenLag []int64
	// FirstErr is the first operation error seen (nil if none).
	FirstErr error
}

// Window condenses the samples that COMPLETED in [from, to).
type Window struct {
	Attempted, Failed int
	// Latencies of the correct operations, ascending.
	Latencies []int64
}

// Window extracts the operations completed in [from, to) nanoseconds.
func (l *Log) Window(from, to int64) Window {
	var w Window
	for _, samples := range l.PerClient {
		// Completion order is ascending in End per client.
		i := sort.Search(len(samples), func(i int) bool { return samples[i].End >= from })
		for ; i < len(samples) && samples[i].End < to; i++ {
			w.Attempted++
			if samples[i].Failed {
				w.Failed++
				continue
			}
			w.Latencies = append(w.Latencies, samples[i].End-samples[i].Start)
		}
	}
	slices.Sort(w.Latencies)
	return w
}

// FirstStartedAfter returns the earliest-due sample whose Start is at
// or after t; ok is false when there is none.
func (l *Log) FirstStartedAfter(t int64) (s Sample, ok bool) {
	for _, samples := range l.PerClient {
		for _, c := range samples {
			if c.Start >= t && (!ok || c.Start < s.Start) {
				s, ok = c, true
			}
		}
	}
	return s, ok
}

// errOnce keeps the first error reported by any client goroutine.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// RunClosed drives `clients` closed-loop clients: each issues its next
// operation as soon as the previous one returned, until stop closes. A
// failed operation is logged and the client carries on — it is a
// failure to count, not a reason to stop offering load.
func RunClosed(clients int, op Op, epoch time.Time, stop <-chan struct{}) *Log {
	log := &Log{PerClient: make([][]Sample, clients)}
	var first errOnce
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples := make([]Sample, 0, 1<<14)
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					log.PerClient[c] = samples
					return
				default:
				}
				start := time.Since(epoch)
				err := op(c, n)
				if err != nil {
					first.set(err)
				}
				samples = append(samples, Sample{Start: int64(start), End: int64(time.Since(epoch)), Failed: err != nil})
			}
		}(c)
	}
	wg.Wait()
	log.FirstErr = first.err
	return log
}

// Schedule returns the due times (nanoseconds from the epoch, ascending)
// of a Poisson arrival process of the given rate over the horizon. The
// same seed gives the same schedule.
func Schedule(seed int64, ratePerSec float64, horizon time.Duration) []int64 {
	rng := rand.New(rand.NewSource(seed))
	meanGap := float64(time.Second) / ratePerSec
	var due []int64
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) * meanGap
		if t >= float64(horizon) {
			return due
		}
		due = append(due, int64(t))
	}
}

// RunOpen issues one operation per entry of due, at its due time,
// whether or not earlier operations have returned. ONE dispatcher
// goroutine sleeps until the next due time and releases every operation
// due by then into a queue; `clients` logical clients (one outstanding
// operation each) take them in due order. How late the dispatcher woke
// is GenLag. On a host whose timers fire a millisecond late that
// lateness is in every latency — polling the clock instead keeps a core
// busy and was measured to disturb the system more than it informs. An operation
// released while every client is busy waits in the queue, and that wait
// is inside its latency because Start is the due time. RunOpen returns
// when every operation has completed.
func RunOpen(clients int, due []int64, op Op, epoch time.Time) *Log {
	log := &Log{PerClient: make([][]Sample, clients), GenLag: make([]int64, 0, len(due))}
	// Sized to the whole schedule so the dispatcher never blocks on a
	// stalled system: an open loop keeps sending.
	queue := make(chan int64, len(due))
	var first errOnce
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var samples []Sample
			n := uint64(0)
			for d := range queue {
				n++
				err := op(c, n)
				if err != nil {
					first.set(err)
				}
				samples = append(samples, Sample{Start: d, End: int64(time.Since(epoch)), Failed: err != nil})
			}
			log.PerClient[c] = samples
		}(c)
	}
	for _, d := range due {
		if wait := time.Duration(d) - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		log.GenLag = append(log.GenLag, int64(time.Since(epoch))-d)
		queue <- d
	}
	close(queue)
	wg.Wait()
	log.FirstErr = first.err
	return log
}
