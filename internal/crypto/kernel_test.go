package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
)

func refMAC(key, data []byte) MAC {
	h := hmac.New(sha256.New, key)
	h.Write(data)
	var m MAC
	h.Sum(m[:0])
	return m
}

// cuts returns the split points a differential check cuts an n-byte
// input at: both ends, thirds, and every SHA-256 padding and block edge
// that falls inside it.
func cuts(n int) []int {
	var out []int
	for _, c := range []int{0, 1, n / 3, n / 2, 55, 56, 63, 64, 119, 120, 128, n - 1, n} {
		if c >= 0 && c <= n {
			out = append(out, c)
		}
	}
	return out
}

// TestKernelMatchesStdlib pins every digest and MAC entry point to
// crypto/sha256 and crypto/hmac, on the block kernel and on the
// standard library's path: input lengths 0–300 (55/56 straddle the
// one-block padding limit, 63/64 and 119/120 the block edges), keys
// shorter than, equal to and longer than a block, and inputs split
// across SumParts, SumHeader and Hasher writes.
func TestKernelMatchesStdlib(t *testing.T) {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	EachPath(t, func(t *testing.T) {
		for _, klen := range []int{0, 32, 64, 65, 100} {
			key := bytes.Repeat([]byte{byte(klen) | 1}, klen)
			k := NewMACKey(key)
			for n := 0; n <= len(data); n++ {
				msg := data[:n]
				want := refMAC(key, msg)
				if got := k.Sum(msg); got != want {
					t.Fatalf("key %d B, %d B: Sum %s want %s", klen, n, got, want)
				}
				if got := Key(key).Sum(msg); got != want {
					t.Fatalf("key %d B, %d B: Key.Sum %s want %s", klen, n, got, want)
				}
				for _, c := range cuts(n) {
					if got := k.SumHeader(msg[:c], msg[c:]); got != want {
						t.Fatalf("key %d B, %d B cut at %d: SumHeader %s want %s", klen, n, c, got, want)
					}
					mid := c + (n-c)/2
					if got := k.SumParts(msg[:c], msg[c:mid], nil, msg[mid:]); got != want {
						t.Fatalf("key %d B, %d B cut at %d/%d: SumParts %s want %s", klen, n, c, mid, got, want)
					}
				}
				if n == DigestSize {
					if got := k.SumDigest(Digest(msg)); got != want {
						t.Fatalf("key %d B: SumDigest %s want %s", klen, got, want)
					}
				}
			}
		}
		for n := 0; n <= len(data); n++ {
			msg := data[:n]
			want := Digest(sha256.Sum256(msg))
			if got := Hash(msg); got != want {
				t.Fatalf("%d B: Hash %s want %s", n, got, want)
			}
			for _, c := range cuts(n) {
				if got := HashParts(msg[:c], nil, msg[c:]); got != want {
					t.Fatalf("%d B cut at %d: HashParts %s want %s", n, c, got, want)
				}
			}
			h := NewHasher()
			for i := range msg {
				h.Write(msg[i : i+1])
			}
			if got := h.Sum(); got != want {
				t.Fatalf("%d B written bytewise: Hasher %s want %s", n, got, want)
			}
		}
		a, b := Hash([]byte("a")), Hash([]byte("b"))
		if got, want := Combine(a, b), Digest(sha256.Sum256(append(a[:], b[:]...))); got != want {
			t.Fatalf("Combine %s want %s", got, want)
		}
	})
}

// FuzzMACKeyMatchesHMAC checks MACKey and the digests against
// crypto/hmac and crypto/sha256 for arbitrary keys and inputs, split
// at an arbitrary point, on the path this CPU takes.
func FuzzMACKeyMatchesHMAC(f *testing.F) {
	f.Add([]byte("key"), []byte("message"), uint16(3))
	f.Add(make([]byte, 65), make([]byte, 56), uint16(55))
	f.Add(make([]byte, 100), make([]byte, 200), uint16(64))
	f.Fuzz(func(t *testing.T, key, data []byte, cut uint16) {
		c := int(cut) % (len(data) + 1)
		want := refMAC(key, data)
		k := NewMACKey(key)
		if got := k.Sum(data); got != want {
			t.Fatalf("Sum %s want %s", got, want)
		}
		if got := k.SumHeader(data[:c], data[c:]); got != want {
			t.Fatalf("SumHeader cut at %d: %s want %s", c, got, want)
		}
		if got := k.SumParts(data[:c], data[c:]); got != want {
			t.Fatalf("SumParts cut at %d: %s want %s", c, got, want)
		}
		if got, want := HashParts(data[:c], data[c:]), Digest(sha256.Sum256(data)); got != want {
			t.Fatalf("HashParts cut at %d: %s want %s", c, got, want)
		}
	})
}
