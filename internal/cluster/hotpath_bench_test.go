package cluster_test

import (
	"testing"
	"time"

	"hybster/internal/cluster"
	"hybster/internal/config"
)

// BenchmarkHotPathPrepareCommitExec measures the full ordering path —
// client request in, prepare multicast, commit quorum, execution,
// reply out — on an in-process HybsterX cluster. allocs/op covers
// every replica plus the client, making it the end-to-end alloc
// budget of the prepare→commit→exec hot path; ecalls/op counts the
// TrInX enclave transitions of the whole group per request.
func BenchmarkHotPathPrepareCommitExec(b *testing.B) {
	cfg := config.Default(config.HybsterX)
	cfg.ViewChangeTimeout = time.Minute // the benchmark must never view-change
	c, err := cluster.Boot(cluster.Options{Config: cfg}, counterApp)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient(time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	payload := []byte{1}

	b.ReportAllocs()
	ecalls := c.MetricSum("hybster_trinx_ecalls_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke(payload, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((c.MetricSum("hybster_trinx_ecalls_total")-ecalls)/float64(b.N), "ecalls/op")
}
