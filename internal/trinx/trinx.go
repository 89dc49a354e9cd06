// Package trinx implements TrInX, the SGX-based trusted counter
// subsystem of Hybster (§5.1 of the paper). A TrInX instance maintains a
// set of monotonically non-decreasing counters inside a trusted
// execution environment (package enclave) and issues certificates that
// cryptographically bind outgoing messages to counter values using a
// secret key shared among all instances of a replica group:
//
//   - Continuing counter certificates τ(tss, tc, tv', tv): accept any
//     new value tv' >= tv, include the previous value tv, and therefore
//     prove a complete, gap-free counter history. Used by Hybster's
//     VIEW-CHANGE messages to force even faulty replicas to disclose how
//     far they participated in a view.
//   - Independent counter certificates τ(tss, tc, tv', -): issued only
//     for tv' strictly greater than the current value, so at most one
//     valid certificate can ever exist per counter value. Used by
//     PREPARE and COMMIT to prevent equivocation.
//   - Multi-counter certificates: one certificate attesting several
//     counters at once.
//   - Trusted MACs: continuing certificates with tv' = tv; cheap
//     non-repudiable replacements for digital signatures, used for
//     CHECKPOINT messages and by the HybridPBFT baseline.
//
// Instances are identified by an ID known to all replicas; instance
// r(u) belongs to pillar u of replica r (§5.3.1). Each instance runs in
// its own enclave; the Multi-TrInX variant (multi.go) hosts many
// instances in one shared enclave for the Fig. 5a comparison.
package trinx

import (
	"errors"
	"fmt"

	"hybster/internal/crypto"
	"hybster/internal/enclave"
)

// Errors returned by certificate creation and verification.
var (
	ErrCounterRegression = errors.New("trinx: new value below current counter value")
	ErrNotIncreasing     = errors.New("trinx: independent certificate requires strictly increasing value")
	ErrNoSuchCounter     = errors.New("trinx: counter ID out of range")
	ErrBadCertificate    = errors.New("trinx: certificate verification failed")
)

// Kind distinguishes the certificate flavors of §5.1.
type Kind uint8

const (
	// Continuing certificates include the previous counter value and
	// permit tv' == tv.
	Continuing Kind = iota + 1
	// Independent certificates omit the previous value and require
	// tv' > tv, guaranteeing uniqueness per counter value.
	Independent
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Continuing:
		return "continuing"
	case Independent:
		return "independent"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// InstanceID identifies a TrInX instance group-wide. MakeInstanceID
// composes it from replica and pillar number.
type InstanceID uint64

// MakeInstanceID returns the instance ID of pillar u at replica r,
// the r(u) notation of §5.3.1.
func MakeInstanceID(replica uint32, pillar uint32) InstanceID {
	return InstanceID(uint64(replica)<<16 | uint64(pillar&0xffff))
}

// Replica extracts the replica component of the instance ID.
func (id InstanceID) Replica() uint32 { return uint32(id >> 16) }

// Pillar extracts the pillar component of the instance ID.
func (id InstanceID) Pillar() uint32 { return uint32(id & 0xffff) }

// String formats the ID in the paper's r(u) notation.
func (id InstanceID) String() string {
	return fmt.Sprintf("%d(%d)", id.Replica(), id.Pillar())
}

// Certificate is a single-counter certificate. Prev is meaningful only
// for Continuing certificates.
type Certificate struct {
	Kind    Kind
	Issuer  InstanceID
	Counter uint32
	Value   uint64
	Prev    uint64
	MAC     crypto.MAC
}

// CounterValue is one (counter, value, previous) triple inside a
// multi-counter certificate.
type CounterValue struct {
	Counter uint32
	Value   uint64
	Prev    uint64
}

// MultiCertificate attests the state of several counters at once.
type MultiCertificate struct {
	Kind    Kind
	Issuer  InstanceID
	Entries []CounterValue
	MAC     crypto.MAC
}

// state is the enclave-private state of one TrInX instance.
type state struct {
	id       InstanceID
	key      *crypto.MACKey
	counters []uint64
}

// TrInX is a handle to one trusted counter instance. All methods are
// safe for concurrent use; calls serialize at the enclave boundary, as
// they would on real hardware.
type TrInX struct {
	id  InstanceID
	enc *enclave.Enclave
	met *instruments // nil unless Instrument was called
}

// New creates a TrInX instance in its own enclave on platform p.
// The instance holds numCounters counters, all initialized to zero, and
// certifies with the group secret key — the trusted-administrator setup
// step of §5.1.
func New(p *enclave.Platform, id InstanceID, numCounters int, key crypto.Key, cost enclave.CostModel) *TrInX {
	enc := enclave.Create(p, fmt.Sprintf("trinx-%s", id), cost, func() any {
		return &state{id: id, key: crypto.NewMACKey(key), counters: make([]uint64, numCounters)}
	})
	return &TrInX{id: id, enc: enc}
}

// WithBridge returns a handle whose calls additionally pay the
// foreign-function bridge cost (the "TrInX (JNI)" variant of Fig. 5a).
// State is shared with the receiver.
func (t *TrInX) WithBridge() *TrInX {
	return &TrInX{id: t.id, enc: t.enc.WithBridge(), met: t.met}
}

// ID returns the instance ID.
func (t *TrInX) ID() InstanceID { return t.id }

// Destroy tears down the instance's enclave.
func (t *TrInX) Destroy() { t.enc.Destroy() }

// certMAC computes the MAC of a single-counter certificate. For
// independent certificates the previous value is excluded, matching the
// τ(tss, tc, tv', −) form of the paper.
func certMAC(key *crypto.MACKey, kind Kind, issuer InstanceID, counter uint32, value, prev uint64, msg crypto.Digest) crypto.MAC {
	if kind == Independent {
		return key.SumParts([]byte{'t', 'x', byte(kind)},
			crypto.U64(uint64(issuer)), crypto.U32(counter), crypto.U64(value), msg[:])
	}
	return key.SumParts([]byte{'t', 'x', byte(kind)},
		crypto.U64(uint64(issuer)), crypto.U32(counter), crypto.U64(value), crypto.U64(prev), msg[:])
}

// multiMAC computes the MAC of a multi-counter certificate.
func multiMAC(key *crypto.MACKey, kind Kind, issuer InstanceID, entries []CounterValue, msg crypto.Digest) crypto.MAC {
	parts := make([][]byte, 0, 3+3*len(entries))
	parts = append(parts, []byte{'t', 'm', byte(kind)}, crypto.U64(uint64(issuer)))
	for _, e := range entries {
		parts = append(parts, crypto.U32(e.Counter), crypto.U64(e.Value))
		if kind == Continuing {
			parts = append(parts, crypto.U64(e.Prev))
		}
	}
	parts = append(parts, msg[:])
	return key.SumParts(parts...)
}

// CreateContinuing issues a continuing counter certificate binding msg
// to the transition of counter tc from its current value to value. The
// new value must be >= the current one; the current value is recorded in
// the certificate as Prev and the counter is advanced to value.
func (t *TrInX) CreateContinuing(tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	res, err := t.ecall(opCreateContinuing, func(st any) (any, error) {
		s := st.(*state)
		if int(tc) >= len(s.counters) {
			return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, tc, len(s.counters))
		}
		prev := s.counters[tc]
		if value < prev {
			return nil, fmt.Errorf("%w: counter %d at %d, requested %d", ErrCounterRegression, tc, prev, value)
		}
		s.counters[tc] = value
		return Certificate{
			Kind: Continuing, Issuer: s.id, Counter: tc, Value: value, Prev: prev,
			MAC: certMAC(s.key, Continuing, s.id, tc, value, prev, msg),
		}, nil
	})
	if err != nil {
		return Certificate{}, err
	}
	return res.(Certificate), nil
}

// CreateIndependent issues an independent counter certificate for a
// strictly increasing value of counter tc, guaranteeing that no other
// valid certificate for (tc, value) can ever exist.
func (t *TrInX) CreateIndependent(tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	res, err := t.ecall(opCreateIndependent, func(st any) (any, error) {
		return st.(*state).createIndependent(tc, value, msg)
	})
	if err != nil {
		return Certificate{}, err
	}
	return res.(Certificate), nil
}

// VerifyCreateIndependent is Verify(in, inMsg) followed by
// CreateIndependent(tc, value, msg) in one enclave transition: the
// certificate is issued, and the counter advanced, only if in is valid.
// A follower acknowledges a PREPARE with it — the acknowledgement
// certifies nothing the PREPARE's certificate did not vouch for.
func (t *TrInX) VerifyCreateIndependent(in Certificate, inMsg crypto.Digest, tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	res, err := t.ecall(opVerifyCreateIndependent, func(st any) (any, error) {
		s := st.(*state)
		if err := s.verify(in, inMsg); err != nil {
			return nil, err
		}
		return s.createIndependent(tc, value, msg)
	})
	if err != nil {
		return Certificate{}, err
	}
	return res.(Certificate), nil
}

// createIndependent is CreateIndependent's enclave-side body.
func (s *state) createIndependent(tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	if int(tc) >= len(s.counters) {
		return Certificate{}, fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, tc, len(s.counters))
	}
	if value <= s.counters[tc] {
		return Certificate{}, fmt.Errorf("%w: counter %d at %d, requested %d", ErrNotIncreasing, tc, s.counters[tc], value)
	}
	s.counters[tc] = value
	return Certificate{
		Kind: Independent, Issuer: s.id, Counter: tc, Value: value,
		MAC: certMAC(s.key, Independent, s.id, tc, value, 0, msg),
	}, nil
}

// CreateTrustedMAC issues a non-repudiable trusted MAC over msg: a
// continuing certificate with tv' = tv that leaves counter tc unchanged
// (§5.1, "Trusted MAC Certificates").
func (t *TrInX) CreateTrustedMAC(tc uint32, msg crypto.Digest) (Certificate, error) {
	res, err := t.ecall(opCreateTrustedMAC, func(st any) (any, error) {
		s := st.(*state)
		if int(tc) >= len(s.counters) {
			return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, tc, len(s.counters))
		}
		v := s.counters[tc]
		return Certificate{
			Kind: Continuing, Issuer: s.id, Counter: tc, Value: v, Prev: v,
			MAC: certMAC(s.key, Continuing, s.id, tc, v, v, msg),
		}, nil
	})
	if err != nil {
		return Certificate{}, err
	}
	return res.(Certificate), nil
}

// CreateMulti issues a multi-counter certificate. For Continuing kind,
// each entry's value must be >= the counter's current value; for
// Independent, strictly greater. All counters advance atomically — if
// any entry is invalid, no counter moves.
func (t *TrInX) CreateMulti(kind Kind, updates []CounterValue, msg crypto.Digest) (MultiCertificate, error) {
	res, err := t.ecall(opCreateMulti, func(st any) (any, error) {
		s := st.(*state)
		entries := make([]CounterValue, len(updates))
		for i, u := range updates {
			if int(u.Counter) >= len(s.counters) {
				return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, u.Counter, len(s.counters))
			}
			cur := s.counters[u.Counter]
			switch kind {
			case Continuing:
				if u.Value < cur {
					return nil, fmt.Errorf("%w: counter %d at %d, requested %d", ErrCounterRegression, u.Counter, cur, u.Value)
				}
			case Independent:
				if u.Value <= cur {
					return nil, fmt.Errorf("%w: counter %d at %d, requested %d", ErrNotIncreasing, u.Counter, cur, u.Value)
				}
			default:
				return nil, fmt.Errorf("trinx: unknown certificate kind %d", kind)
			}
			entries[i] = CounterValue{Counter: u.Counter, Value: u.Value, Prev: cur}
		}
		for _, e := range entries {
			s.counters[e.Counter] = e.Value
		}
		return MultiCertificate{
			Kind: kind, Issuer: s.id, Entries: entries,
			MAC: multiMAC(s.key, kind, s.id, entries, msg),
		}, nil
	})
	if err != nil {
		return MultiCertificate{}, err
	}
	return res.(MultiCertificate), nil
}

// Verify checks that cert is a valid certificate over msg issued by the
// TrInX instance cert.Issuer. Verification runs inside the enclave (the
// shared secret never leaves the trust boundary) and therefore pays the
// same transition cost as certification. An instance refuses to "verify"
// its own issuer ID trivially — it recomputes the MAC like any other
// verifier; the soundness argument is that no instance ever issues a
// certificate naming a foreign issuer.
func (t *TrInX) Verify(cert Certificate, msg crypto.Digest) error {
	_, err := t.ecall(opVerify, func(st any) (any, error) {
		return nil, st.(*state).verify(cert, msg)
	})
	return err
}

// verify is Verify's enclave-side body.
func (s *state) verify(cert Certificate, msg crypto.Digest) error {
	if certMAC(s.key, cert.Kind, cert.Issuer, cert.Counter, cert.Value, cert.Prev, msg) != cert.MAC {
		return ErrBadCertificate
	}
	return nil
}

// VerifyMulti checks a multi-counter certificate over msg.
func (t *TrInX) VerifyMulti(cert MultiCertificate, msg crypto.Digest) error {
	_, err := t.ecall(opVerifyMulti, func(st any) (any, error) {
		s := st.(*state)
		expect := multiMAC(s.key, cert.Kind, cert.Issuer, cert.Entries, msg)
		if expect != cert.MAC {
			return nil, ErrBadCertificate
		}
		return nil, nil
	})
	return err
}

// Counter returns the current value of counter tc, read through the
// enclave boundary. Intended for tests and diagnostics; protocol code
// tracks values itself.
func (t *TrInX) Counter(tc uint32) (uint64, error) {
	res, err := t.ecall(opCounterRead, func(st any) (any, error) {
		s := st.(*state)
		if int(tc) >= len(s.counters) {
			return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, tc, len(s.counters))
		}
		return s.counters[tc], nil
	})
	if err != nil {
		return 0, err
	}
	return res.(uint64), nil
}
