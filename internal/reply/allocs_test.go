//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back,
// so allocation counts are pinned in non-race builds only.

package reply

import "testing"

// TestHotPathAllocCeilings runs the execute→reply benchmarks and holds
// their allocs/op to a ceiling: one reply costs its Reply message and
// nothing else (the MAC allocates nothing), a 16-request drain stays at
// 22 with 3 to spare.
func TestHotPathAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bench func(*testing.B)
		max   int64
	}{
		{"ReplyPath", BenchmarkHotPathReplyPath, 1},
		{"ExecDrain", BenchmarkHotPathExecDrain, 25},
	} {
		if n := testing.Benchmark(tc.bench).AllocsPerOp(); n > tc.max {
			t.Errorf("BenchmarkHotPath%s allocates %d/op, ceiling %d", tc.name, n, tc.max)
		}
	}
}
