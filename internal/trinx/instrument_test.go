package trinx

import (
	"strings"
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/telemetry"
)

// TestInstrumentCountsOperations pins that an instrumented instance
// records one ECall count and one latency sample per operation, with
// op and pillar labels.
func TestInstrumentCountsOperations(t *testing.T) {
	tel := telemetry.New("test")
	tx := newTest(t, MakeInstanceID(1, 3), 2).Instrument(tel)
	msg := crypto.Hash([]byte("m"))
	if _, err := tx.CreateIndependent(0, 1, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateIndependent(0, 2, msg); err != nil {
		t.Fatal(err)
	}
	cert, err := tx.CreateContinuing(1, 5, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Verify(cert, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.VerifyCreateIndependent(cert, msg, 0, 3, msg); err != nil {
		t.Fatal(err)
	}
	reg := tel.Metrics()
	if got := reg.Value(`hybster_trinx_ecalls_total{op="verify_create_independent",pillar="3"}`); got != 1 {
		t.Fatalf("verify_create_independent count = %v, want 1", got)
	}
	// Summed by op-name prefix, the fused call counts once, as a verify.
	prefixSum := func(prefix string) (sum float64) {
		for name, v := range reg.Snapshot() {
			if strings.HasPrefix(name, `hybster_trinx_ecalls_total{op="`+prefix) {
				sum += v
			}
		}
		return sum
	}
	if c, v := prefixSum("create"), prefixSum("verify"); c != 3 || v != 2 {
		t.Fatalf("prefix sums create=%v verify=%v, want 3 and 2", c, v)
	}
	if got := reg.Value(`hybster_trinx_ecalls_total{op="create_independent",pillar="3"}`); got != 2 {
		t.Fatalf("create_independent count = %v, want 2", got)
	}
	if got := reg.Value(`hybster_trinx_ecalls_total{op="create_continuing",pillar="3"}`); got != 1 {
		t.Fatalf("create_continuing count = %v, want 1", got)
	}
	if got := reg.Value(`hybster_trinx_ecalls_total{op="verify",pillar="3"}`); got != 1 {
		t.Fatalf("verify count = %v, want 1", got)
	}
	// Latency histograms observed as many samples as calls.
	if got := reg.Value(`hybster_trinx_ecall_seconds{op="create_independent",pillar="3"}`); got != 2 {
		t.Fatalf("create_independent latency samples = %v, want 2", got)
	}
}

// TestInstrumentDurable pins seal/unseal accounting: horizon seals
// count and a resumed instance records its boot unseal.
func TestInstrumentDurable(t *testing.T) {
	p := enclave.NewPlatform("instrument-durable")
	sink := newMemSink()
	id := MakeInstanceID(0, 0)
	tel := telemetry.New("test")
	d, err := NewDurable(p, id, 1, testKey, enclave.CostModel{}, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.Instrument(tel)
	msg := crypto.Hash([]byte("m"))
	if _, err := d.CreateIndependent(0, 1, msg); err != nil {
		t.Fatal(err)
	}
	if got := tel.Metrics().Value(`hybster_trinx_seals_total{pillar="0"}`); got != 1 {
		t.Fatalf("seals = %v, want 1", got)
	}
	if err := d.SealNow(); err != nil {
		t.Fatal(err)
	}
	d.Destroy()

	tel2 := telemetry.New("test")
	d2, err := NewDurable(p, id, 1, testKey, enclave.CostModel{}, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Destroy()
	d2.Instrument(tel2)
	if got := tel2.Metrics().Value(`hybster_trinx_unseals_total{pillar="0"}`); got != 1 {
		t.Fatalf("unseals after resume = %v, want 1", got)
	}
}

// benchTrInX builds an instance with the paper's §6.2 cost model — the
// realistic hot path the overhead budget is measured against.
func benchTrInX(b *testing.B, tel *telemetry.Telemetry) *TrInX {
	b.Helper()
	tx := New(enclave.NewPlatform("bench"), MakeInstanceID(0, 0), 1, testKey, enclave.DefaultCostModel)
	b.Cleanup(tx.Destroy)
	if tel != nil {
		tx.Instrument(tel)
	}
	return tx
}

// BenchmarkTelemetryOverhead measures the telemetry cost on the
// protocol's hottest trusted path — independent counter certification
// through the enclave at the paper's transition cost. The acceptance
// budget is <5% overhead for "enabled" over "disabled"; CI runs this
// with -benchtime=100x as a smoke check.
func BenchmarkTelemetryOverhead(b *testing.B) {
	msg := crypto.Hash([]byte("bench"))
	b.Run("disabled", func(b *testing.B) {
		tx := benchTrInX(b, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tx.CreateIndependent(0, uint64(i)+1, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tel := telemetry.New("bench")
		tx := benchTrInX(b, tel)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tx.CreateIndependent(0, uint64(i)+1, msg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if tel.Metrics().Value(`hybster_trinx_ecalls_total{op="create_independent",pillar="0"}`) == 0 {
			b.Fatal("instrumented run recorded no ECalls")
		}
	})
}
