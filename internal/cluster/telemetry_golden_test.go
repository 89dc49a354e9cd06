package cluster_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hybster/internal/cluster"
	"hybster/internal/config"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_*.golden from the running engines")

// TestEngineMetricNamesGolden pins the telemetry surface of the three
// engines: the series each protocol configuration registers under its
// hybster_<proto>_ prefix (and the shared hybster_marshal_ gauges) must
// equal the committed list. The auditor (internal/audit) and the
// repository benchmark (benchmark/layers.go) read these names; a
// refactoring that drops or renames one fails here, not in a soak.
func TestEngineMetricNamesGolden(t *testing.T) {
	boot := map[config.Protocol]func(cluster.Options) (*cluster.Cluster, error){
		config.HybsterS:   func(o cluster.Options) (*cluster.Cluster, error) { return cluster.Boot(o, counterApp) },
		config.HybsterX:   func(o cluster.Options) (*cluster.Cluster, error) { return cluster.Boot(o, counterApp) },
		config.PBFTcop:    func(o cluster.Options) (*cluster.Cluster, error) { return cluster.Boot(o, counterApp) },
		config.HybridPBFT: func(o cluster.Options) (*cluster.Cluster, error) { return cluster.Boot(o, counterApp) },
		config.MinBFT:     func(o cluster.Options) (*cluster.Cluster, error) { return cluster.Boot(o, counterApp) },
	}
	for proto, newCluster := range boot {
		t.Run(proto.String(), func(t *testing.T) {
			c, err := newCluster(cluster.Options{Config: config.Default(proto)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			var names []string
			for name := range c.Telemetry(0).Metrics().Snapshot() {
				for _, prefix := range []string{"hybster_core_", "hybster_pbft_", "hybster_minbft_", "hybster_marshal_"} {
					if strings.HasPrefix(name, prefix) {
						names = append(names, name)
					}
				}
			}
			sort.Strings(names)
			got := strings.Join(names, "\n") + "\n"

			path := filepath.Join("testdata", "metrics_"+proto.String()+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("metric names of %s differ from %s (rerun with -update after an intended change)\ngot:\n%swant:\n%s",
					proto, path, got, want)
			}
		})
	}
}
