//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back,
// so allocation counts are pinned in non-race builds only.

package crypto_test

import (
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/message"
)

// TestMACAllocs pins what a MAC or a digest costs the heap on either
// path: nothing, whatever the input size, a batch digest and MAC inputs
// built from U32/U64 included, and only the MAC slice for a new
// authenticator.
func TestMACAllocs(t *testing.T) {
	crypto.EachPath(t, func(t *testing.T) {
		ks := crypto.NewKeyStore(0, crypto.NewKeyFromSeed("allocs"))
		k := ks.KeyFor(crypto.ClientIDBase)
		d := crypto.Hash([]byte("allocs"))
		kib := make([]byte, 1024)
		a := crypto.NewAuthenticator(crypto.NewKeyStore(crypto.ClientIDBase, crypto.NewKeyFromSeed("allocs")), d, 3)
		batch := make([]*message.Request, 12)
		for i := range batch {
			batch[i] = &message.Request{Client: crypto.ClientIDBase, Seq: uint64(i)}
			_ = batch[i].Digest() // warm the memo: BatchDigest's own cost is the pin
		}
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
			{"SumParts with U32/U64", 0, func() { _ = k.SumParts([]byte("ui"), crypto.U32(1), crypto.U64(2), d[:]) }},
			{"VerifyAuthenticator", 0, func() { _ = crypto.VerifyAuthenticator(ks, a, d) }},
			{"NewAuthenticator", 1, func() { _ = crypto.NewAuthenticator(ks, d, 3) }},
			{"Hash 1 KiB", 0, func() { _ = crypto.Hash(kib) }},
			{"HashParts with U32/U64", 0, func() { _ = crypto.HashParts([]byte("prep"), crypto.U64(1), crypto.U32(2), d[:]) }},
			{"Combine", 0, func() { _ = crypto.Combine(d, d) }},
			{"BatchDigest of 12", 0, func() { _ = message.BatchDigest(batch) }},
		} {
			if n := testing.AllocsPerRun(200, tc.f); n > tc.max {
				t.Errorf("%s allocates %.1f/op, want <= %.0f", tc.name, n, tc.max)
			}
		}
	})
}
