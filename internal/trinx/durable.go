package trinx

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybster/internal/crypto"
	"hybster/internal/enclave"
	"hybster/internal/telemetry"
)

// Durability errors.
var (
	// ErrStaleSeal reports a rolled-back sealed counter blob: the blob
	// on disk is older than the platform's monotonic seal register says
	// it must be. Accepting it would let a recovered replica re-certify
	// counter values it already used — the equivocation-on-recovery
	// attack — so the instance refuses to start.
	ErrStaleSeal = errors.New("trinx: sealed counter state rolled back")
	// ErrAmnesia reports a replica whose seal register proves counters
	// were sealed but whose disk holds no blob: the replica lost its
	// durable state entirely. It must rejoin as a fresh identity (or via
	// an administrator), never silently with zeroed counters.
	ErrAmnesia = errors.New("trinx: seal register shows prior seals but no sealed state found (amnesia)")
)

// SealSink persists sealed counter blobs. package wal's SealStore
// implements it; tests substitute an in-memory fake. LoadSeal reports
// ok=false (with a nil error) when no blob exists under the name.
type SealSink interface {
	SaveSeal(name string, blob []byte) error
	LoadSeal(name string) (blob []byte, ok bool, err error)
}

// defaultReserve is how far beyond the highest certified value the
// sealed horizon runs. A larger reserve means fewer synchronous seals
// (one per reserve-many counter advances) at the cost of a larger jump
// on recovery; the protocol tolerates the jump because a quorum forms
// without the recovering replica.
const defaultReserve = 64

// DurableTrInX wraps a TrInX instance with crash-durable counter state
// using horizon sealing: before any certificate advances a counter past
// the sealed horizon, the instance extends the horizon by a reserve and
// seals it to the sink *synchronously*. After a crash the counters
// resume at the sealed horizon — at or above every value ever certified
// — so a recovered instance can never issue a second independent
// certificate for a value it used before the crash. Equivocation stays
// impossible by construction, exactly the property §5.1 derives from
// SGX monotonic counters.
type DurableTrInX struct {
	*TrInX
	sink    SealSink
	name    string
	reserve uint64

	mu      sync.Mutex
	horizon []uint64 // sealed upper bound per counter
	resumed bool

	// Telemetry (all nil-safe; set by Instrument).
	seals   *telemetry.Counter
	sealLat *telemetry.Histogram
	tel     *telemetry.Telemetry
}

// NewDurable creates (or recovers) a durable TrInX instance. On a fresh
// boot the counters start at zero; when sink holds a sealed blob the
// counters resume at the sealed horizon. reserve <= 0 selects the
// default. Returns ErrStaleSeal if the blob is older than the
// platform's seal register demands, and ErrAmnesia if the register
// proves seals existed but the sink has none.
func NewDurable(p *enclave.Platform, id InstanceID, numCounters int, key crypto.Key,
	cost enclave.CostModel, sink SealSink, reserve uint64) (*DurableTrInX, error) {
	if reserve == 0 {
		reserve = defaultReserve
	}
	t := New(p, id, numCounters, key, cost)
	d := &DurableTrInX{
		TrInX: t, sink: sink, name: t.enc.Name(), reserve: reserve,
		horizon: make([]uint64, numCounters),
	}
	blob, ok, err := sink.LoadSeal(d.name)
	if err != nil {
		t.Destroy()
		return nil, fmt.Errorf("trinx: load seal: %w", err)
	}
	if !ok {
		if p.SealSeq(d.name) > 0 {
			t.Destroy()
			return nil, fmt.Errorf("%w: instance %s", ErrAmnesia, id)
		}
		return d, nil // genuine first boot
	}
	data, err := t.enc.Unseal(blob)
	if err != nil {
		t.Destroy()
		if errors.Is(err, enclave.ErrSealRolledBack) {
			return nil, fmt.Errorf("%w: instance %s: %v", ErrStaleSeal, id, err)
		}
		return nil, fmt.Errorf("trinx: unseal: %w", err)
	}
	horizon, err := decodeHorizon(data, numCounters)
	if err != nil {
		t.Destroy()
		return nil, err
	}
	d.horizon = horizon
	d.resumed = true
	// Resume the enclave counters at the sealed horizon: >= every value
	// certified before the crash.
	if _, err := t.enc.ECall(func(st any) (any, error) {
		copy(st.(*state).counters, horizon)
		return nil, nil
	}); err != nil {
		t.Destroy()
		return nil, err
	}
	return d, nil
}

// Instrument attaches telemetry to the instance (ECall metrics on the
// embedded TrInX plus seal/unseal accounting here) and returns the
// receiver. The boot-time unseal predates instrumentation, so a
// resumed instance records it retroactively.
func (d *DurableTrInX) Instrument(tel *telemetry.Telemetry) *DurableTrInX {
	d.TrInX.Instrument(tel)
	if tel == nil {
		return d
	}
	pillar := telemetry.L("pillar", fmt.Sprint(d.id.Pillar()))
	d.seals = tel.Counter("hybster_trinx_seals_total",
		"counter-horizon seal operations", pillar)
	d.sealLat = tel.Histogram("hybster_trinx_seal_seconds",
		"seal latency (encrypt + sink write + register commit)", pillar)
	d.tel = tel
	if d.resumed {
		tel.Counter("hybster_trinx_unseals_total",
			"sealed counter blobs recovered at boot", pillar).Inc()
	}
	return d
}

// Resumed reports whether the instance recovered sealed state rather
// than starting fresh.
func (d *DurableTrInX) Resumed() bool { return d.resumed }

// Horizon returns the sealed upper bound of counter tc (tests).
func (d *DurableTrInX) Horizon(tc uint32) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(tc) >= len(d.horizon) {
		return 0
	}
	return d.horizon[tc]
}

// ensureLocked extends and seals the horizon so that it covers value
// on counter tc. The seal write completes before the caller certifies,
// so the on-disk horizon is never below a certified value. Called with
// d.mu held; the caller keeps holding it through the enclave counter
// advance, so SealNow can never snapshot between the two.
func (d *DurableTrInX) ensureLocked(tc uint32, value uint64) error {
	if int(tc) >= len(d.horizon) {
		return fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, tc, len(d.horizon))
	}
	if value <= d.horizon[tc] {
		return nil
	}
	next := make([]uint64, len(d.horizon))
	copy(next, d.horizon)
	next[tc] = value + d.reserve
	if err := d.sealLocked(next); err != nil {
		return err
	}
	d.horizon = next
	return nil
}

// ensureMultiLocked is ensureLocked for a batch of updates, sealing at
// most once.
func (d *DurableTrInX) ensureMultiLocked(updates []CounterValue) error {
	var next []uint64
	for _, u := range updates {
		if int(u.Counter) >= len(d.horizon) {
			return fmt.Errorf("%w: %d of %d", ErrNoSuchCounter, u.Counter, len(d.horizon))
		}
		if u.Value <= d.horizon[u.Counter] {
			continue
		}
		if next == nil {
			next = make([]uint64, len(d.horizon))
			copy(next, d.horizon)
		}
		if v := u.Value + d.reserve; v > next[u.Counter] {
			next[u.Counter] = v
		}
	}
	if next == nil {
		return nil
	}
	if err := d.sealLocked(next); err != nil {
		return err
	}
	d.horizon = next
	return nil
}

func (d *DurableTrInX) sealLocked(horizon []uint64) error {
	start := time.Now()
	blob, err := d.enc.Seal(encodeHorizon(horizon))
	if err != nil {
		return fmt.Errorf("trinx: seal: %w", err)
	}
	if err := d.sink.SaveSeal(d.name, blob); err != nil {
		return fmt.Errorf("trinx: save seal: %w", err)
	}
	// Blob durable — only now write the platform seal register through.
	// A crash between the two leaves the blob one ahead of the stored
	// register, which Unseal accepts and heals; committing the register
	// first would make the same honest crash look like a rollback
	// attack and permanently refuse the replica.
	if err := d.enc.CommitSeal(); err != nil {
		return fmt.Errorf("trinx: commit seal register: %w", err)
	}
	d.seals.Inc()
	d.sealLat.ObserveDuration(time.Since(start))
	d.tel.Trace(telemetry.EvSeal, 0, 0, d.id.Pillar(), d.name)
	return nil
}

// SealNow seals the instance's *exact* current counter values, for
// graceful shutdown: a clean stop then resumes warm, with no horizon
// jump at all. Holding d.mu — which every Create* holds across its
// horizon check AND enclave counter advance — guarantees the snapshot
// cannot interleave with an in-flight certification, so the sealed
// values are never below a certified one.
func (d *DurableTrInX) SealNow() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	res, err := d.enc.ECall(func(st any) (any, error) {
		s := st.(*state)
		out := make([]uint64, len(s.counters))
		copy(out, s.counters)
		return out, nil
	})
	if err != nil {
		return err
	}
	exact := res.([]uint64)
	if err := d.sealLocked(exact); err != nil {
		return err
	}
	d.horizon = exact
	return nil
}

// CreateContinuing certifies like TrInX.CreateContinuing, first
// extending the sealed horizon to cover value. d.mu is held across the
// horizon extension AND the enclave advance: SealNow's exact-value
// snapshot can therefore never land between the two and seal a horizon
// below a value certified concurrently.
func (d *DurableTrInX) CreateContinuing(tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureLocked(tc, value); err != nil {
		return Certificate{}, err
	}
	return d.TrInX.CreateContinuing(tc, value, msg)
}

// CreateIndependent certifies like TrInX.CreateIndependent, first
// extending the sealed horizon to cover value (locking as in
// CreateContinuing).
func (d *DurableTrInX) CreateIndependent(tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureLocked(tc, value); err != nil {
		return Certificate{}, err
	}
	return d.TrInX.CreateIndependent(tc, value, msg)
}

// VerifyCreateIndependent verifies and certifies like
// TrInX.VerifyCreateIndependent, first extending the sealed horizon to
// cover value (locking as in CreateContinuing). The horizon may be
// extended for a certificate that then fails to verify; that is safe,
// because a horizon only bounds certified values from above.
func (d *DurableTrInX) VerifyCreateIndependent(in Certificate, inMsg crypto.Digest, tc uint32, value uint64, msg crypto.Digest) (Certificate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureLocked(tc, value); err != nil {
		return Certificate{}, err
	}
	return d.TrInX.VerifyCreateIndependent(in, inMsg, tc, value, msg)
}

// CreateMulti certifies like TrInX.CreateMulti, first extending the
// sealed horizon to cover every updated value (one seal for the batch,
// locking as in CreateContinuing).
func (d *DurableTrInX) CreateMulti(kind Kind, updates []CounterValue, msg crypto.Digest) (MultiCertificate, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureMultiLocked(updates); err != nil {
		return MultiCertificate{}, err
	}
	return d.TrInX.CreateMulti(kind, updates, msg)
}

// CreateTrustedMAC does not advance any counter and needs no seal; it
// delegates directly. (Present so the durable type documents the full
// certification surface.)
func (d *DurableTrInX) CreateTrustedMAC(tc uint32, msg crypto.Digest) (Certificate, error) {
	return d.TrInX.CreateTrustedMAC(tc, msg)
}

// --- horizon blob codec ------------------------------------------------------

func encodeHorizon(h []uint64) []byte {
	out := make([]byte, 8+8*len(h))
	copy(out, crypto.U64(uint64(len(h))))
	for i, v := range h {
		copy(out[8+8*i:], crypto.U64(v))
	}
	return out
}

func decodeHorizon(data []byte, numCounters int) ([]uint64, error) {
	if len(data) < 8 {
		return nil, errors.New("trinx: sealed blob too short")
	}
	n := int(beUint64(data[:8]))
	if len(data) != 8+8*n {
		return nil, fmt.Errorf("trinx: sealed blob length %d does not match %d counters", len(data), n)
	}
	if n != numCounters {
		return nil, fmt.Errorf("trinx: sealed blob has %d counters, instance expects %d", n, numCounters)
	}
	h := make([]uint64, n)
	for i := range h {
		h[i] = beUint64(data[8+8*i : 16+8*i])
	}
	return h, nil
}

func beUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
