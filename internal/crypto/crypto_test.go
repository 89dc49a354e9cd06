package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"))
	b := Hash([]byte("hello"))
	if a != b {
		t.Fatalf("same input produced different digests: %v vs %v", a, b)
	}
	c := Hash([]byte("hello!"))
	if a == c {
		t.Fatalf("different inputs produced identical digests")
	}
}

func TestHashPartsEqualsConcatenation(t *testing.T) {
	err := quick.Check(func(a, b, c []byte) bool {
		concat := append(append(append([]byte{}, a...), b...), c...)
		return HashParts(a, b, c) == Hash(concat)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCombineOrderMatters(t *testing.T) {
	a, b := Hash([]byte("a")), Hash([]byte("b"))
	if Combine(a, b) == Combine(b, a) {
		t.Fatal("Combine must not be commutative")
	}
	if Combine(a, b) != Combine(a, b) {
		t.Fatal("Combine must be deterministic")
	}
}

func TestZeroDigest(t *testing.T) {
	if !ZeroDigest.IsZero() {
		t.Fatal("ZeroDigest.IsZero() = false")
	}
	if Hash(nil).IsZero() {
		t.Fatal("Hash(nil) should not be the zero digest")
	}
}

func TestKeySumVerify(t *testing.T) {
	k := NewKeyFromSeed("s1")
	msg := []byte("payload")
	mac := k.Sum(msg)
	if !k.Sum(msg).Equal(mac) {
		t.Fatal("valid MAC rejected")
	}
	if k.Sum([]byte("payload!")).Equal(mac) {
		t.Fatal("MAC accepted for different message")
	}
	k2 := NewKeyFromSeed("s2")
	if k2.Sum(msg).Equal(mac) {
		t.Fatal("MAC accepted under different key")
	}
}

func TestSumPartsEqualsSumConcat(t *testing.T) {
	k := NewKeyFromSeed("s")
	err := quick.Check(func(a, b []byte) bool {
		concat := append(append([]byte{}, a...), b...)
		return k.SumParts(a, b) == k.Sum(concat)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	if !bytes.Equal(NewKeyFromSeed("x"), NewKeyFromSeed("x")) {
		t.Fatal("same seed produced different keys")
	}
	if bytes.Equal(NewKeyFromSeed("x"), NewKeyFromSeed("y")) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestPairKeySymmetry(t *testing.T) {
	master := NewKeyFromSeed("group")
	ks1 := NewKeyStore(1, master)
	ks2 := NewKeyStore(2, master)
	if !bytes.Equal(ks1.PairKey(1, 2), ks2.PairKey(2, 1)) {
		t.Fatal("pair keys are not symmetric")
	}
	if bytes.Equal(ks1.PairKey(1, 2), ks1.PairKey(1, 3)) {
		t.Fatal("distinct pairs share a key")
	}
	if ks1.KeyFor(2).Sum([]byte("m")) != ks2.KeyFor(1).Sum([]byte("m")) {
		t.Fatal("KeyFor is not symmetric across stores")
	}
}

func TestAuthenticatorRoundtrip(t *testing.T) {
	master := NewKeyFromSeed("group")
	const n = 4
	sender := NewKeyStore(0, master)
	d := Hash([]byte("msg"))
	auth := NewAuthenticator(sender, d, n)

	for r := uint32(1); r < n; r++ {
		recv := NewKeyStore(r, master)
		if !VerifyAuthenticator(recv, auth, d) {
			t.Fatalf("replica %d rejected valid authenticator", r)
		}
		if VerifyAuthenticator(recv, auth, Hash([]byte("other"))) {
			t.Fatalf("replica %d accepted authenticator for wrong digest", r)
		}
	}
}

func TestAuthenticatorWrongGroupRejected(t *testing.T) {
	d := Hash([]byte("msg"))
	auth := NewAuthenticator(NewKeyStore(0, NewKeyFromSeed("g1")), d, 4)
	recv := NewKeyStore(1, NewKeyFromSeed("g2"))
	if VerifyAuthenticator(recv, auth, d) {
		t.Fatal("authenticator accepted across groups")
	}
}

func TestAuthenticatorOutOfRangeReceiver(t *testing.T) {
	master := NewKeyFromSeed("group")
	auth := NewAuthenticator(NewKeyStore(0, master), Hash([]byte("m")), 2)
	recv := NewKeyStore(7, master) // ID beyond the MAC vector
	if VerifyAuthenticator(recv, auth, Hash([]byte("m"))) {
		t.Fatal("accepted authenticator without a MAC slot for receiver")
	}
}

func TestU64U32(t *testing.T) {
	if len(U64(0)) != 8 || len(U32(0)) != 4 {
		t.Fatal("wrong encoded lengths")
	}
	if bytes.Equal(U64(1), U64(2)) {
		t.Fatal("distinct values encode equal")
	}
}

// TestPooledHMACMatchesFresh pins a reused MACKey to the reference
// construction: it must produce byte-identical MACs to a fresh
// hmac.New — through every entry point, for inputs around the block
// sizes, across reuse and for concurrent callers — on whichever path
// this CPU takes (TestKernelMatchesStdlib covers both).
func TestPooledHMACMatchesFresh(t *testing.T) {
	key := NewKeyFromSeed("pool")
	k := NewMACKey(key)
	ref := func(data []byte) MAC {
		h := hmac.New(sha256.New, key)
		h.Write(data)
		var m MAC
		h.Sum(m[:0])
		return m
	}
	// Sequential reuse: the second call hits the pooled state.
	for _, n := range []int{0, 31, 32, 63, 64, 65, 129, 1024} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(n + i*3)
		}
		want := ref(data)
		for cut := 0; cut <= n; cut += 1 + n/5 {
			if got := k.SumParts(data[:cut], data[cut:]); got != want {
				t.Fatalf("%d B cut at %d: pooled SumParts = %s want %s", n, cut, got, want)
			}
			if got := k.SumHeader(data[:cut], data[cut:]); got != want {
				t.Fatalf("%d B cut at %d: pooled SumHeader = %s want %s", n, cut, got, want)
			}
		}
		if got := k.Sum(data); got != want || !got.Equal(want) {
			t.Fatalf("%d B: pooled Sum = %s want %s", n, got, want)
		}
		if n == DigestSize {
			if d := Digest(data); k.SumDigest(d) != want {
				t.Fatalf("SumDigest = %s want %s", k.SumDigest(d), want)
			}
		}
	}
	// Concurrent use must never cross-contaminate states.
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				data := []byte{byte(w), byte(i), byte(w ^ i)}
				var d Digest
				copy(d[:], data)
				if got, want := k.SumDigest(d), ref(d[:]); got != want {
					select {
					case errs <- got.String() + " != " + want.String():
					default:
					}
					return
				}
				if got, want := k.SumHeader(data[:1], data[1:]), ref(data); got != want {
					select {
					case errs <- got.String() + " != " + want.String():
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatalf("concurrent pooled Sum diverged: %s", msg)
	}
}

// TestKeyForMatchesPairKey pins the per-peer handles to the plain
// derivation: for replica peers (dense table), client peers (bounded
// map) and client peers past the map's cap (derived per call), the
// handle's MAC is byte-identical to PairKey(self, peer).Sum, stable
// across calls, and verifies under the peer's own store.
func TestKeyForMatchesPairKey(t *testing.T) {
	master := NewKeyFromSeed("handles")
	ks := NewKeyStore(1, master)
	data := []byte("wire bytes must not move")
	check := func(peer uint32) {
		t.Helper()
		want := ks.PairKey(1, peer).Sum(data)
		for call := 0; call < 2; call++ {
			if got := ks.KeyFor(peer).Sum(data); got != want {
				t.Fatalf("peer %d call %d: handle MAC %s, PairKey MAC %s", peer, call, got, want)
			}
		}
		if !NewKeyStore(peer, master).KeyFor(1).Sum(data).Equal(want) {
			t.Fatalf("peer %d does not verify the MAC", peer)
		}
	}
	for _, peer := range []uint32{0, 1, 2, denseKeys - 1, denseKeys, ClientIDBase - 1} {
		check(peer)
	}
	for i := uint32(0); i < maxCachedKeys+8; i++ {
		check(ClientIDBase + i)
	}
	if n := ks.clientCount.Load(); n != maxCachedKeys {
		t.Fatalf("client handle map holds %d entries, want the cap %d", n, maxCachedKeys)
	}
	if ks.KeyFor(0) != ks.KeyFor(0) || ks.KeyFor(ClientIDBase) != ks.KeyFor(ClientIDBase) {
		t.Fatal("cached peers must get the same handle on every call")
	}
}
