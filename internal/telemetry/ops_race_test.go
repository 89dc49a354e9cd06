package telemetry

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOpsServerConcurrentScrapes hammers every ops endpoint from
// parallel scrapers while writer goroutines record events and bump
// instruments at protocol rate — the deployment shape once an audit
// monitor polls /vars and /trace on its own schedule alongside a
// Prometheus scraper and a human hitting /audit. Run under -race this
// pins that no endpoint shares unsynchronized state with the hot path.
func TestOpsServerConcurrentScrapes(t *testing.T) {
	const ringDepth = 64 // small, so dumps race ring wraparound constantly

	reg := NewRegistry()
	tr := NewTracer("minbft", ringDepth)
	tr.SetReplica(7)
	tel := &Telemetry{metrics: reg, tracer: tr}
	commits := tel.Counter("hybster_minbft_committed_total", "committed")
	lat := tel.Histogram("hybster_exec_latency_us", "execution latency")
	var view atomic.Uint64
	tel.GaugeFunc("hybster_minbft_view", "current view",
		func() float64 { return float64(view.Load()) })

	dumpDir := t.TempDir()
	s := NewOpsServer(OpsOptions{
		Telemetry:    tel,
		Healthz:      func() error { return nil },
		Readyz:       func() error { return nil },
		Vars:         func() map[string]any { return map[string]any{"replica_id": 7} },
		TraceDumpDir: dumpDir,
		// A realistic audit callback reads the registry it is asked
		// about, so /audit scrapes contend with the writers too.
		Audit: func() any {
			return map[string]any{"findings": 0, "metrics": len(reg.Snapshot())}
		},
	})
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	var stop atomic.Bool
	var writers, scrapers sync.WaitGroup

	// Writers: protocol-rate event recording and instrument updates.
	// Each writer loops until the scrapers are done, guaranteeing every
	// scrape and dump races live recording and ring wraparound.
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := uint64(0); !stop.Load(); i++ {
				tel.TraceDigest(EvCommit, i%5, i, uint32(w), []byte{byte(i), byte(w)}, "")
				commits.Inc()
				lat.Observe(i % 5000)
				view.Store(i % 5)
			}
		}(w)
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, nil
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n := 0
		for {
			m, err := resp.Body.Read(buf[n:])
			n += m
			if err != nil || n == len(buf) {
				break
			}
		}
		return resp.StatusCode, buf[:n]
	}

	// Scrapers: each endpoint hit repeatedly from its own goroutine.
	const rounds = 30
	for _, path := range []string{"/metrics", "/vars", "/audit", "/healthz", "/readyz"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for i := 0; i < rounds; i++ {
				if code, _ := get(path); code != http.StatusOK {
					t.Errorf("GET %s = %d", path, code)
					return
				}
			}
		}(path)
	}

	// /trace scraper: every response must be a well-formed dump whose
	// header exactly describes its events even mid-recording.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for i := 0; i < rounds; i++ {
			code, body := get("/trace")
			if code != http.StatusOK {
				t.Errorf("GET /trace = %d", code)
				return
			}
			checkDump(t, "/trace", body, ringDepth)
		}
	}()

	// Dump writer: POST /trace/dump races the ring's wraparound; the
	// files are validated below once everything has settled.
	var dumpMu sync.Mutex
	var dumps []string
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(base+"/trace/dump", "", nil)
			if err != nil {
				t.Errorf("POST /trace/dump: %v", err)
				return
			}
			var out struct {
				Dumped string `json:"dumped"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("POST /trace/dump = %d, %v", resp.StatusCode, err)
				return
			}
			dumpMu.Lock()
			dumps = append(dumps, out.Dumped)
			dumpMu.Unlock()
		}
	}()

	// Stop the writers only after every scraper goroutine finished, so
	// the whole scrape volume ran against live traffic. The scrapers
	// are bounded by rounds; the writers by the stop flag.
	scrapers.Wait()
	stop.Store(true)
	writers.Wait()

	if len(dumps) != rounds {
		t.Fatalf("collected %d dumps, want %d", len(dumps), rounds)
	}
	for _, path := range dumps {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read dump: %v", err)
		}
		checkDump(t, path, b, ringDepth)
	}
}

// checkDump asserts the self-consistency a dump taken mid-recording
// must still have: the header counts describe exactly the carried
// events, the events are a contiguous seq range ending at the header's
// total, and nothing exceeds the ring.
func checkDump(t *testing.T, src string, body []byte, ringDepth int) {
	t.Helper()
	var d TraceDump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Errorf("%s: not a dump: %v", src, err)
		return
	}
	if d.Replica != 7 || d.Protocol != "minbft" || d.RingDepth != ringDepth {
		t.Errorf("%s: header = replica %d proto %q depth %d", src, d.Replica, d.Protocol, d.RingDepth)
	}
	if len(d.Events) > ringDepth {
		t.Errorf("%s: %d events exceed ring depth %d", src, len(d.Events), ringDepth)
	}
	if d.Dropped != d.Total-uint64(len(d.Events)) {
		t.Errorf("%s: dropped %d != total %d - carried %d", src, d.Dropped, d.Total, len(d.Events))
	}
	for i, ev := range d.Events {
		want := d.Total - uint64(len(d.Events)) + uint64(i)
		if ev.Seq != want {
			t.Errorf("%s: event %d seq %d, want %d (torn snapshot)", src, i, ev.Seq, want)
			return
		}
	}
}
