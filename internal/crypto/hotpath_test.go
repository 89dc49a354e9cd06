package crypto

import "testing"

// BenchmarkHotPathMAC measures one pooled HMAC at the two input sizes
// the hot path MACs: a digest (request authenticators, TrInX
// certificates) and a 1 KiB reply result. allocs/op is the pin — the
// pooled state owns the result and the copied header, so it is 0.
func BenchmarkHotPathMAC(b *testing.B) {
	ks := NewKeyStore(0, NewKeyFromSeed("bench"))
	k := ks.KeyFor(ClientIDBase)
	d := Hash([]byte("bench"))
	kib := make([]byte, 1024)
	var sink MAC
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = k.SumDigest(d)
		}
	})
	b.Run("1KiB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = k.Sum(kib)
		}
	})
	b.Run("verify-authenticator", func(b *testing.B) {
		a := NewAuthenticator(NewKeyStore(ClientIDBase, NewKeyFromSeed("bench")), d, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !VerifyAuthenticator(ks, a, d) {
				b.Fatal("authenticator rejected")
			}
		}
	})
	_ = sink
}
