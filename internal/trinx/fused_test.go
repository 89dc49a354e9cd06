package trinx

import (
	"errors"
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/enclave"
)

// independentCertifier is what the differential test drives: the
// surface TrInX and DurableTrInX share for the PREPARE→COMMIT step.
type independentCertifier interface {
	Verify(cert Certificate, msg crypto.Digest) error
	CreateIndependent(tc uint32, value uint64, msg crypto.Digest) (Certificate, error)
	VerifyCreateIndependent(in Certificate, inMsg crypto.Digest, tc uint32, value uint64, msg crypto.Digest) (Certificate, error)
	Counter(tc uint32) (uint64, error)
}

// pairStep is the two-call acknowledgement the fused call replaces.
func pairStep(c independentCertifier, in Certificate, inMsg crypto.Digest, tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	if err := c.Verify(in, inMsg); err != nil {
		return Certificate{}, err
	}
	return c.CreateIndependent(tc, value, msg)
}

// TestVerifyCreateIndependentEqualsPair drives twin instances — same
// group key, same instance ID — one with Verify+CreateIndependent and
// one with VerifyCreateIndependent, through the same steps, and
// requires the same certificate, the same error and the same counter
// after every step: a valid input, a forged MAC (no certificate, the
// counter untouched, the value still free for a later genuine
// certification) and a value not above the counter. The durable twins
// additionally keep their sealed horizon at or above the counter
// throughout, including right after a failed verification.
func TestVerifyCreateIndependentEqualsPair(t *testing.T) {
	id := MakeInstanceID(1, 0)
	twins := []struct {
		name string
		make func(t *testing.T, side string) independentCertifier
	}{
		{"volatile", func(t *testing.T, side string) independentCertifier {
			tx := New(enclave.NewPlatform(side), id, 2, testKey, enclave.CostModel{})
			t.Cleanup(tx.Destroy)
			return tx
		}},
		{"durable", func(t *testing.T, side string) independentCertifier {
			d, err := NewDurable(enclave.NewPlatform(side), id, 2, testKey, enclave.CostModel{}, newMemSink(), 4)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Destroy)
			return d
		}},
	}
	issuer := newTest(t, MakeInstanceID(0, 0), 1)
	prepMsg := crypto.Hash([]byte("PREPARE"))
	certFor := func(v uint64) Certificate {
		t.Helper()
		c, err := issuer.CreateIndependent(0, v, prepMsg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	forge := func(c Certificate) Certificate { c.MAC[0] ^= 1; return c }
	in1, in2, in3, in4 := certFor(1), certFor(2), certFor(3), certFor(40)

	// A plain step drives both twins with CreateIndependent alone.
	steps := []struct {
		name    string
		plain   bool
		in      Certificate
		value   uint64
		wantErr error
	}{
		{"valid", false, in1, 1, nil},
		{"forged MAC", false, forge(in2), 2, ErrBadCertificate},
		{"CreateIndependent of the value the forged call left", true, Certificate{}, 2, nil},
		{"value equal to counter", false, in3, 2, ErrNotIncreasing},
		{"value below counter", false, in3, 1, ErrNotIncreasing},
		{"forged MAC after a refusal", false, forge(in3), 3, ErrBadCertificate},
		{"genuine after forged", false, in3, 3, nil},
		{"forged MAC past the horizon", false, forge(in4), 40, ErrBadCertificate},
		{"valid past the horizon", false, in4, 40, nil},
	}
	for _, tw := range twins {
		t.Run(tw.name, func(t *testing.T) {
			pair, fused := tw.make(t, "pair"), tw.make(t, "fused")
			for _, st := range steps {
				msg := crypto.HashParts([]byte("COMMIT"), crypto.U64(st.value))
				before, _ := fused.Counter(0)
				var pc, fc Certificate
				var perr, ferr error
				if st.plain {
					pc, perr = pair.CreateIndependent(0, st.value, msg)
					fc, ferr = fused.CreateIndependent(0, st.value, msg)
				} else {
					pc, perr = pairStep(pair, st.in, prepMsg, 0, st.value, msg)
					fc, ferr = fused.VerifyCreateIndependent(st.in, prepMsg, 0, st.value, msg)
				}
				if !errors.Is(ferr, st.wantErr) || !errors.Is(perr, st.wantErr) {
					t.Fatalf("%s: fused err %v, pair err %v, want %v", st.name, ferr, perr, st.wantErr)
				}
				if fc != pc {
					t.Fatalf("%s: fused certificate %+v, pair %+v", st.name, fc, pc)
				}
				pv, _ := pair.Counter(0)
				fv, _ := fused.Counter(0)
				if fv != pv {
					t.Fatalf("%s: fused counter %d, pair %d", st.name, fv, pv)
				}
				if st.wantErr != nil && (fv != before || fc != (Certificate{})) {
					t.Fatalf("%s: refused call moved the counter %d→%d or issued %+v", st.name, before, fv, fc)
				}
				if d, ok := fused.(*DurableTrInX); ok {
					if h := d.Horizon(0); h < fv {
						t.Fatalf("%s: sealed horizon %d below counter %d", st.name, h, fv)
					}
				}
			}
		})
	}
}

// TestDurableVerifyCreatePreExtendsHorizon pins the one way the durable
// fused call differs from the pair: the horizon is extended before the
// MAC is checked, so a forged certificate can move it although no
// counter moves. That is safe — a horizon only bounds certified values
// from above, and a recovery resumes at it, past every value certified
// before the crash — and the recovered instance still certifies the
// next value above it.
func TestDurableVerifyCreatePreExtendsHorizon(t *testing.T) {
	p, key, id := durableSetup(t)
	sink := newMemSink()
	d, err := NewDurable(p, id, 1, key, enclave.CostModel{}, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	issuer := New(enclave.NewPlatform("issuer"), MakeInstanceID(2, 0), 1, key, enclave.CostModel{})
	defer issuer.Destroy()
	inMsg := crypto.Hash([]byte("PREPARE"))
	in, err := issuer.CreateIndependent(0, 100, inMsg)
	if err != nil {
		t.Fatal(err)
	}
	in.MAC[0] ^= 1
	if _, err := d.VerifyCreateIndependent(in, inMsg, 0, 100, inMsg); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("forged certificate: err %v, want ErrBadCertificate", err)
	}
	if cur, _ := d.Counter(0); cur != 0 {
		t.Fatalf("counter %d after a refused call, want 0", cur)
	}
	if h := d.Horizon(0); h != 100+4 {
		t.Fatalf("horizon %d, want the pre-extended 104", h)
	}
	d.Destroy() // crash

	d2, err := NewDurable(p, id, 1, key, enclave.CostModel{}, sink, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Destroy()
	if cur, _ := d2.Counter(0); cur != 104 {
		t.Fatalf("recovered counter %d, want the horizon 104", cur)
	}
	if _, err := d2.CreateIndependent(0, 105, inMsg); err != nil {
		t.Fatalf("certify above the recovered horizon: %v", err)
	}
}
