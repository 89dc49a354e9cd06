package crypto

import "testing"

// EachPath runs f once per path this build can take — the block kernel
// where the CPU has it, the standard library's always — with every
// digest and every MACKey bound inside f on that path.
func EachPath(t *testing.T, f func(t *testing.T)) {
	for _, kernel := range []bool{true, false} {
		name := "stdlib"
		if kernel {
			name = "kernel"
		}
		t.Run(name, func(t *testing.T) {
			if kernel && !haveKernel {
				t.Skip("no SHA-256 block kernel in this build or on this CPU")
			}
			defer func(was bool) { useKernel = was }(useKernel)
			useKernel = kernel
			f(t)
		})
	}
}
