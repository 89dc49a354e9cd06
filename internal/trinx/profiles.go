package trinx

import (
	"sync"
	"time"

	"hybster/internal/crypto"
)

// Certifier is the common surface of everything Fig. 5a compares: given
// a message, produce an authentication certificate (here reduced to the
// MAC; counter bookkeeping is variant-specific). The benchmark harness
// drives Certifiers from a configurable number of worker threads.
type Certifier interface {
	// Certify authenticates msg and returns the MAC.
	Certify(msg []byte) (crypto.MAC, error)
	// Name identifies the variant in benchmark output.
	Name() string
}

// counterCertifier adapts a TrInX instance to the Certifier interface
// by issuing independent certificates with strictly increasing values —
// the operation the ordering protocol performs per message.
type counterCertifier struct {
	t    *TrInX
	name string
	next uint64
	mu   sync.Mutex
}

// NewCertifier wraps t as a benchmark Certifier under the given display
// name.
func NewCertifier(t *TrInX, name string) Certifier {
	return &counterCertifier{t: t, name: name}
}

func (c *counterCertifier) Name() string { return c.name }

func (c *counterCertifier) Certify(msg []byte) (crypto.MAC, error) {
	// The lock spans the enclave call: counter values must reach the
	// instance in issue order, mirroring the dedicated-thread access
	// pattern of §6.1 ("each instance ... is dedicated to a single
	// thread").
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	cert, err := c.t.CreateIndependent(0, c.next, crypto.Hash(msg))
	if err != nil {
		return crypto.MAC{}, err
	}
	return cert.MAC, nil
}

// libraryBaseCost is the calibrated duration of one raw HMAC-SHA256
// certification (hash + MAC) over a 32-byte message on this machine.
// Library profiles express their relative speed as multiples of it.
var (
	libraryBaseOnce sync.Once
	libraryBaseCost time.Duration
)

func baseCost() time.Duration {
	libraryBaseOnce.Do(func() {
		key := crypto.NewMACKey(crypto.NewKeyFromSeed("calibration"))
		msg := make([]byte, 32)
		const rounds = 4000
		start := time.Now()
		for i := 0; i < rounds; i++ {
			d := crypto.Hash(msg)
			_ = key.Sum(d[:])
		}
		libraryBaseCost = time.Since(start) / rounds
	})
	return libraryBaseCost
}

// LibraryProfile models one of the plain, insecure library
// implementations of §6.1 (TCrypto, OpenSSL, pure Java). Each Certify
// performs a real HMAC-SHA256 and then burns additional CPU so that its
// total cost matches factor × the calibrated raw cost, reproducing the
// relative speeds the paper reports (OpenSSL fastest; TCrypto ≈ 20 %
// slower than Java and ≈ 40 % slower than OpenSSL). Profiles share no
// state across threads and therefore scale perfectly, as in the paper.
type LibraryProfile struct {
	name   string
	key    *crypto.MACKey
	factor float64
}

// Library profile constructors for the Fig. 5a variants.
func NewOpenSSLProfile(key crypto.Key) *LibraryProfile {
	return &LibraryProfile{name: "OpenSSL (native)", key: crypto.NewMACKey(key), factor: 1.0}
}
func NewJavaProfile(key crypto.Key) *LibraryProfile {
	return &LibraryProfile{name: "Java", key: crypto.NewMACKey(key), factor: 1.2}
}
func NewTCryptoProfile(key crypto.Key) *LibraryProfile {
	return &LibraryProfile{name: "TCrypto (native)", key: crypto.NewMACKey(key), factor: 1.4}
}

// Name implements Certifier.
func (l *LibraryProfile) Name() string { return l.name }

// Certify implements Certifier.
func (l *LibraryProfile) Certify(msg []byte) (crypto.MAC, error) {
	d := crypto.Hash(msg)
	mac := l.key.Sum(d[:])
	if extra := time.Duration(float64(baseCost()) * (l.factor - 1.0)); extra > 0 {
		busy(extra)
	}
	return mac, nil
}

// CASHProfile models the FPGA-based CASH subsystem of CheapBFT used as
// the published comparison point in §6.1: a fixed 57 µs certification
// service reachable over a single channel, so concurrent callers
// serialize. It exists purely to reproduce the "17,500 vs 240,000
// certifications per second" comparison.
type CASHProfile struct {
	key     *crypto.MACKey
	service time.Duration
	mu      sync.Mutex
}

// NewCASHProfile creates the CASH comparison profile with the paper's
// 57 µs per-operation service time.
func NewCASHProfile(key crypto.Key) *CASHProfile {
	return &CASHProfile{key: crypto.NewMACKey(key), service: 57 * time.Microsecond}
}

// Name implements Certifier.
func (c *CASHProfile) Name() string { return "CASH (FPGA, published)" }

// Certify implements Certifier.
func (c *CASHProfile) Certify(msg []byte) (crypto.MAC, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	busy(c.service)
	d := crypto.Hash(msg)
	return c.key.Sum(d[:]), nil
}

// busy spins for approximately d; see enclave.spin for rationale.
func busy(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
