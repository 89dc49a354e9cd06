//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back,
// so allocation counts are pinned in non-race builds only.

package crypto

import "testing"

// TestMACAllocs pins what a MAC costs the heap: nothing for a MAC or a
// check of one, whatever the input size, and only the MAC slice for a
// new authenticator.
func TestMACAllocs(t *testing.T) {
	ks := NewKeyStore(0, NewKeyFromSeed("allocs"))
	k := ks.KeyFor(ClientIDBase)
	d := Hash([]byte("allocs"))
	kib := make([]byte, 1024)
	mac := k.Sum(kib)
	a := NewAuthenticator(NewKeyStore(ClientIDBase, NewKeyFromSeed("allocs")), d, 3)
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Sum 32 B", 0, func() { _ = k.Sum(d[:]) }},
		{"Sum 1 KiB", 0, func() { _ = k.Sum(kib) }},
		{"SumDigest", 0, func() { _ = k.SumDigest(d) }},
		{"SumHeader from the stack", 0, func() {
			var hdr [25]byte
			_ = k.SumHeader(hdr[:], kib)
		}},
		{"Verify", 0, func() { _ = k.Verify(kib, mac) }},
		{"VerifyAuthenticator", 0, func() { _ = VerifyAuthenticator(ks, a, d) }},
		{"NewAuthenticator", 1, func() { _ = NewAuthenticator(ks, d, 3) }},
	} {
		if n := testing.AllocsPerRun(200, tc.f); n > tc.max {
			t.Errorf("%s allocates %.1f/op, want <= %.0f", tc.name, n, tc.max)
		}
	}
}
