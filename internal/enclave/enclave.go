// Package enclave provides a software-simulated trusted execution
// environment standing in for Intel SGX, which is unavailable on this
// platform. The simulation preserves the two properties the protocols
// and benchmarks in this repository depend on:
//
//  1. Isolation: enclave-private state is reachable exclusively through
//     the ECall boundary. Code outside the enclave cannot read or modify
//     counters, keys, or sealed state except via the exported calls. In
//     real SGX the boundary is hardware-enforced; here it is enforced by
//     Go encapsulation, which suffices to exercise identical protocol
//     code paths.
//  2. Cost: every ECall pays a configurable transition cost (default
//     2.4 µs, the enclave mode-switch the paper measures in §6.2),
//     plus an optional bridge cost modeling the JNI hop of the paper's
//     Java prototype (0.3 µs).
//
// The package also models SGX sealing (authenticated encryption of
// enclave state for persistence) and rollback protection via platform
// epochs, so that the "undetected replay attack" assumption of §5.1 is
// an explicit, testable mechanism rather than a hand wave.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybster/internal/crypto"
)

// Errors returned by the enclave runtime.
var (
	ErrDestroyed    = errors.New("enclave: destroyed")
	ErrSealCorrupt  = errors.New("enclave: sealed blob corrupt or tampered")
	ErrSealReplayed = errors.New("enclave: sealed blob from an old epoch (rollback attempt)")
	// ErrSealRolledBack is returned when a blob authenticates correctly
	// but carries a seal sequence older than the platform's monotonic
	// register for this enclave: someone restored a stale copy of the
	// sealed state (the classic rollback attack on sealed storage).
	ErrSealRolledBack = errors.New("enclave: sealed blob superseded by a newer seal (rollback attempt)")
	// ErrSealAhead is returned when an authentic blob carries a seal
	// sequence more than one ahead of the platform's register: the
	// register's backing storage was lost or regressed (it no longer
	// reflects seals that demonstrably happened). The blob itself is the
	// newest state, but a register that can regress cannot detect
	// rollback, so the enclave refuses. Operator action: restore the
	// register backing file from the machine that issued the seal, or
	// retire this identity.
	ErrSealAhead = errors.New("enclave: sealed blob ahead of platform seal register (register storage lost or regressed)")
)

// CostModel describes the simulated overhead of crossing the trust
// boundary. A zero CostModel makes ECalls free, which unit tests use.
type CostModel struct {
	// Transition is the user→enclave→user mode-switch cost paid by
	// every ECall.
	Transition time.Duration
	// Bridge is an additional cost paid per call when the enclave is
	// accessed through a foreign-function bridge (the paper's JNI hop).
	Bridge time.Duration
}

// DefaultCostModel mirrors the costs reported in §6.2 of the paper:
// 2.4 µs mode switch, 0.3 µs JNI bridge (the bridge applies only when
// the caller opts in via WithBridge).
var DefaultCostModel = CostModel{Transition: 2400 * time.Nanosecond, Bridge: 300 * time.Nanosecond}

// spin occupies the calling goroutine for approximately d, imitating
// the synchronous, non-blocking nature of an SGX transition: the call
// never returns early and never parks on a timer (sleeping would free
// the core for the full duration and flatten the cost into noise).
//
// The loop cooperatively yields between time checks. On a host with at
// least as many cores as concurrently transitioning enclaves the yield
// is a no-op (nothing else is runnable on this P) and the behaviour is
// the classic core-burning busy-wait. On a host with fewer physical
// cores than the deployment simulates — a laptop running a 4-pillar ×
// 4-replica cluster in one process — a hard busy-wait would serialize
// transitions that real SGX hardware runs on separate cores, inverting
// the comparative shapes the benchmarks exist to reproduce; yielding
// lets another pillar's transition (or real work) interleave during
// the window, which is exactly what distinct cores would do.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Platform models the machine an enclave runs on. It provides the
// sealing key (in SGX: derived from the CPU's fused key and the enclave
// measurement) and a monotonic epoch used for rollback protection of
// sealed state. All enclaves created on one Platform share it, as they
// would share a physical CPU.
type Platform struct {
	sealKey crypto.Key
	epoch   atomic.Uint64

	mu       sync.Mutex
	enclaves int
	// sealSeq is the per-enclave monotonic seal-sequence register: the
	// simulation of the SGX platform's hardware monotonic counters.
	// Every Seal bumps the issuing enclave's register; Unseal refuses
	// blobs whose embedded sequence is below the register, which is how
	// a restored-from-backup (rolled back) seal is detected. The
	// register lives on the Platform — machine hardware — so it
	// survives process crashes that wipe both enclave memory and disk.
	sealSeq map[string]uint64
	// store, when set, persists the seal registers so multi-process
	// deployments keep rollback protection across real process restarts
	// (the file stands in for the hardware NVM). The write-through is
	// deferred: Seal advances only the in-memory register; the caller
	// commits it to the store with CommitSeal AFTER the blob itself is
	// durable. Ordering matters — persisting the register first would
	// turn a crash between the two writes into a self-inflicted
	// "rollback" (blob seq = register−1) that bricks an honest replica.
	// With blob-first ordering the same crash leaves blob seq =
	// register+1, which Unseal accepts and heals.
	store string
}

// NewPlatform creates a platform with a sealing key derived from seed.
func NewPlatform(seed string) *Platform {
	return &Platform{
		sealKey: crypto.NewKeyFromSeed("platform-seal:" + seed),
		sealSeq: make(map[string]uint64),
	}
}

// Epoch returns the current rollback-protection epoch.
func (p *Platform) Epoch() uint64 { return p.epoch.Load() }

// AdvanceEpoch invalidates all previously sealed blobs, e.g. after a
// suspected rollback attack or administrative reset.
func (p *Platform) AdvanceEpoch() uint64 { return p.epoch.Add(1) }

// SealSeq returns the platform's monotonic seal-sequence register for
// the named enclave (0 = that enclave never sealed). Protocol recovery
// code uses it to distinguish a genuinely fresh node from an amnesiac
// one whose sealed state went missing.
func (p *Platform) SealSeq(name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sealSeq[name]
}

// nextSealSeq advances and returns the in-memory register for name.
// The bound store is deliberately NOT written here: the new sequence
// only becomes the durable floor once the blob carrying it is safely
// on disk (see CommitSeal and the store field's ordering note).
func (p *Platform) nextSealSeq(name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sealSeq[name]++
	return p.sealSeq[name]
}

// healSealSeq raises the register for name to seq (never lowers it)
// and writes the store through. Used by Unseal when it accepts a blob
// one ahead of the register — the crash-between-blob-and-commit
// artifact — so the accepted sequence becomes the new floor.
func (p *Platform) healSealSeq(name string, seq uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq <= p.sealSeq[name] {
		return nil
	}
	p.sealSeq[name] = seq
	return p.persistRegistersLocked()
}

// EnclaveCount returns the number of live enclaves on the platform.
func (p *Platform) EnclaveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enclaves
}

// Enclave is one simulated trusted execution environment. The state
// interface is intentionally opaque: the concrete state value is created
// inside Create and never escapes except through ECall results.
// An Enclave value is a handle; WithBridge returns a second handle to
// the same underlying environment.
type Enclave struct {
	core      *enclaveCore
	useBridge bool
	view      func(any) any
}

type enclaveCore struct {
	platform *Platform
	name     string
	cost     CostModel

	mu        sync.Mutex
	state     any
	destroyed bool

	calls atomic.Uint64
}

// Create instantiates an enclave on platform p. The init function runs
// inside the trust boundary and returns the enclave-private state; name
// identifies the enclave (SGX measurement analogue) and keys sealing.
func Create(p *Platform, name string, cost CostModel, init func() any) *Enclave {
	e := &Enclave{core: &enclaveCore{platform: p, name: name, cost: cost, state: init()}}
	p.mu.Lock()
	p.enclaves++
	p.mu.Unlock()
	return e
}

// WithBridge returns a handle to the same enclave whose calls also pay
// the foreign-function bridge cost. State and lifetime are shared with
// the original handle.
func (e *Enclave) WithBridge() *Enclave {
	return &Enclave{core: e.core, useBridge: true, view: e.view}
}

// WithView returns a handle to the same enclave whose ECalls receive
// project(rootState) instead of the root state. It lets one enclave host
// several logical sub-states (the Multi-TrInX variant) while keeping a
// single entry point; the projection itself runs inside the trust
// boundary. Projections compose.
func (e *Enclave) WithView(project func(any) any) *Enclave {
	parent := e.view
	combined := project
	if parent != nil {
		combined = func(st any) any { return project(parent(st)) }
	}
	return &Enclave{core: e.core, useBridge: e.useBridge, view: combined}
}

// Name returns the enclave's identity (measurement analogue).
func (e *Enclave) Name() string { return e.core.name }

// Calls returns the number of ECalls performed so far, for tests and
// accounting.
func (e *Enclave) Calls() uint64 { return e.core.calls.Load() }

// Destroy tears the enclave down; subsequent ECalls fail.
func (e *Enclave) Destroy() {
	c := e.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed {
		return
	}
	c.destroyed = true
	c.state = nil
	c.platform.mu.Lock()
	c.platform.enclaves--
	c.platform.mu.Unlock()
}

// ECall executes fn inside the trust boundary with exclusive access to
// the enclave-private state, paying the simulated transition cost. It is
// the only way to reach enclave state.
func (e *Enclave) ECall(fn func(state any) (any, error)) (any, error) {
	c := e.core
	spin(c.cost.Transition)
	if e.useBridge {
		spin(c.cost.Bridge)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed {
		return nil, ErrDestroyed
	}
	c.calls.Add(1)
	st := c.state
	if e.view != nil {
		st = e.view(st)
	}
	return fn(st)
}

// sealNonceSize is the AEAD nonce length; the full seal header is
// epoch (8) | sequence (8) | nonce (12).
const sealNonceSize = 12

const sealHeaderSize = 16 + sealNonceSize

// Seal encrypts and authenticates data under the platform sealing key,
// binding it to this enclave's identity, the current platform epoch,
// and a fresh monotonic seal sequence drawn from the platform register.
// The result can be stored outside the enclave and later restored with
// Unseal; restoring after the epoch advanced, or restoring any blob
// older than the newest seal, fails — which models SGX's defense
// against state-rollback (replay) attacks assumed in §5.1.
//
// When the platform's register has a backing store (BindStore), the
// durability protocol is two-phase: write the returned blob to stable
// storage first, then call CommitSeal to write the register through.
// A crash anywhere in between leaves the blob exactly one sequence
// ahead of the stored register, which Unseal accepts and heals; the
// reverse order would misread the same crash as a rollback attack.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	aead, err := e.aead()
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, sealNonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("enclave: seal nonce: %w", err)
	}
	epoch := e.core.platform.Epoch()
	seq := e.core.platform.nextSealSeq(e.core.name)
	aad := sealAAD(e.core.name, epoch, seq)
	blob := make([]byte, 16+sealNonceSize, sealHeaderSize+len(data)+aead.Overhead())
	copy(blob[:8], crypto.U64(epoch))
	copy(blob[8:16], crypto.U64(seq))
	copy(blob[16:], nonce)
	return aead.Seal(blob, nonce, data, aad), nil
}

// CommitSeal writes the enclave's seal register through to the
// platform's backing store (a no-op without one). Call it after the
// blob returned by Seal is durably stored: it makes the blob's
// sequence the floor below which every future Unseal refuses.
func (e *Enclave) CommitSeal() error {
	p := e.core.platform
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.persistRegistersLocked()
}

// Unseal decrypts a blob produced by Seal. It fails if the blob was
// tampered with, sealed by a different enclave identity, sealed during
// an earlier platform epoch, or superseded by a newer seal of the same
// enclave (ErrSealRolledBack — the stale blob is authentic but
// restoring it would regress the sealed state). A blob exactly one
// sequence ahead of the register is accepted: it is the newest seal,
// written durably just before a crash preempted the register commit;
// accepting it raises the register to match (see Seal). More than one
// ahead is ErrSealAhead — the register storage itself went missing.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	if len(blob) < sealHeaderSize {
		return nil, ErrSealCorrupt
	}
	epoch := binary.BigEndian.Uint64(blob[:8])
	seq := binary.BigEndian.Uint64(blob[8:16])
	if epoch != e.core.platform.Epoch() {
		return nil, ErrSealReplayed
	}
	aead, err := e.aead()
	if err != nil {
		return nil, err
	}
	nonce := blob[16:sealHeaderSize]
	data, err := aead.Open(nil, nonce, blob[sealHeaderSize:], sealAAD(e.core.name, epoch, seq))
	if err != nil {
		return nil, ErrSealCorrupt
	}
	// Authenticity established; now enforce freshness against the
	// platform's monotonic register. seq == latest is the normal case;
	// seq == latest+1 is the blob of an in-flight seal whose register
	// commit a crash preempted — it is the newest state, so accept it
	// and raise the register to close the window. Anything further
	// ahead means the register storage regressed.
	latest := e.core.platform.SealSeq(e.core.name)
	switch {
	case seq < latest:
		return nil, fmt.Errorf("%w: blob seq %d, register %d", ErrSealRolledBack, seq, latest)
	case seq == latest+1:
		if err := e.core.platform.healSealSeq(e.core.name, seq); err != nil {
			return nil, err
		}
	case seq > latest:
		return nil, fmt.Errorf("%w: blob seq %d, register %d", ErrSealAhead, seq, latest)
	}
	return data, nil
}

func (e *Enclave) aead() (cipher.AEAD, error) {
	// Key derivation binds the sealing key to the enclave identity,
	// mirroring SGX's MRENCLAVE-based sealing policy.
	d := e.core.platform.sealKey.SumParts([]byte("seal"), []byte(e.core.name))
	block, err := aes.NewCipher(d[:])
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	return cipher.NewGCM(block)
}

func sealAAD(name string, epoch, seq uint64) []byte {
	aad := make([]byte, 0, len(name)+16)
	aad = append(aad, name...)
	aad = append(aad, crypto.U64(epoch)...)
	aad = append(aad, crypto.U64(seq)...)
	return aad
}

// --- seal-register persistence -------------------------------------------

// BindStore attaches a backing file to the platform's seal registers,
// standing in for the rollback-protected NVM real monotonic counters
// live in. Existing register state in the file is loaded (merged by
// maximum, so in-memory registers never regress) and register bumps
// are written through — fsynced — when the sealer calls CommitSeal,
// after its blob is durable (see the store field for why the order
// matters). The file is MAC'd under the platform sealing key; a
// tampered file is rejected.
func (p *Platform) BindStore(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if data, err := os.ReadFile(path); err == nil {
		regs, err := p.decodeRegisters(data)
		if err != nil {
			return err
		}
		for name, seq := range regs {
			if seq > p.sealSeq[name] {
				p.sealSeq[name] = seq
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("enclave: seal register store: %w", err)
	}
	p.store = path
	return p.persistRegistersLocked()
}

// persistRegistersLocked writes the registers through to the store, if
// one is bound: temp file, fsync, rename, directory fsync — the same
// discipline as wal.SealStore.Save, so power loss leaves either the
// old register file or the new one, never a torn or vanished write
// that would quietly regress rollback detection. Called with p.mu
// held.
func (p *Platform) persistRegistersLocked() error {
	if p.store == "" {
		return nil
	}
	names := make([]string, 0, len(p.sealSeq))
	for n := range p.sealSeq {
		names = append(names, n)
	}
	sort.Strings(names)
	body := make([]byte, 0, 64*len(names))
	body = append(body, crypto.U32(uint32(len(names)))...)
	for _, n := range names {
		body = append(body, crypto.U32(uint32(len(n)))...)
		body = append(body, n...)
		body = append(body, crypto.U64(p.sealSeq[n])...)
	}
	mac := p.sealKey.SumParts([]byte("seal-registers"), body)
	tmpPath := p.store + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("enclave: seal register store: %w", err)
	}
	if _, err := tmp.Write(append(body, mac[:]...)); err != nil {
		tmp.Close()
		return fmt.Errorf("enclave: seal register store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("enclave: seal register store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("enclave: seal register store: %w", err)
	}
	if err := os.Rename(tmpPath, p.store); err != nil {
		return fmt.Errorf("enclave: seal register store: %w", err)
	}
	if d, err := os.Open(filepath.Dir(p.store)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// decodeRegisters parses and authenticates a register store file.
func (p *Platform) decodeRegisters(data []byte) (map[string]uint64, error) {
	if len(data) < 4+32 {
		return nil, ErrSealCorrupt
	}
	body, mac := data[:len(data)-32], data[len(data)-32:]
	want := p.sealKey.SumParts([]byte("seal-registers"), body)
	if !hmac.Equal(want[:], mac) {
		return nil, fmt.Errorf("%w: seal register store MAC", ErrSealCorrupt)
	}
	n := int(binary.BigEndian.Uint32(body))
	body = body[4:]
	regs := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		if len(body) < 4 {
			return nil, ErrSealCorrupt
		}
		l := int(binary.BigEndian.Uint32(body))
		body = body[4:]
		if l < 0 || len(body) < l+8 {
			return nil, ErrSealCorrupt
		}
		name := string(body[:l])
		regs[name] = binary.BigEndian.Uint64(body[l:])
		body = body[l+8:]
	}
	if len(body) != 0 {
		return nil, ErrSealCorrupt
	}
	return regs, nil
}
