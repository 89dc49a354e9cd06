// Package usig implements USIG (Unique Sequential Identifier Generator),
// the trusted subsystem of MinBFT (Veronese et al., "Efficient Byzantine
// Fault-Tolerance", IEEE ToC 2013), which this repository includes as the
// sequential hybrid baseline the paper compares against (§4, §6.2).
//
// USIG is simpler than TrInX: it maintains a single counter that is
// implicitly incremented at every certification. CreateUI assigns the
// next counter value to a message and returns a unique identifier (UI)
// certifying the assignment; VerifyUI checks a UI issued by another
// replica's USIG. Because the counter is implicit and unique per
// message, receivers must process messages of a replica in counter order
// and check for gaps — the equivocation-detection (not prevention)
// regime discussed in §4.2 of the Hybster paper.
package usig

import (
	"errors"
	"fmt"

	"hybster/internal/crypto"
	"hybster/internal/enclave"
)

// ErrBadUI is returned when a unique identifier fails verification.
var ErrBadUI = errors.New("usig: invalid unique identifier")

// UI is the unique identifier USIG assigns to a message: the counter
// value and the certificate binding it to the message and issuer.
type UI struct {
	Issuer  uint32 // replica ID of the issuing USIG
	Counter uint64
	MAC     crypto.MAC
}

type state struct {
	id      uint32
	key     *crypto.MACKey
	counter uint64
}

// USIG is a handle to one USIG instance.
type USIG struct {
	id  uint32
	enc *enclave.Enclave
	met *instruments // nil = uninstrumented
}

// New creates the USIG of replica id on platform p with the group
// secret key.
func New(p *enclave.Platform, id uint32, key crypto.Key, cost enclave.CostModel) *USIG {
	enc := enclave.Create(p, fmt.Sprintf("usig-%d", id), cost, func() any {
		return &state{id: id, key: crypto.NewMACKey(key)}
	})
	return &USIG{id: id, enc: enc}
}

// ID returns the replica ID this USIG belongs to.
func (u *USIG) ID() uint32 { return u.id }

// Destroy tears down the instance's enclave.
func (u *USIG) Destroy() { u.enc.Destroy() }

func uiMAC(key *crypto.MACKey, issuer uint32, counter uint64, msg crypto.Digest) crypto.MAC {
	return key.SumParts([]byte("ui"), crypto.U32(issuer), crypto.U64(counter), msg[:])
}

// CreateUI increments the counter and certifies the assignment of the
// new value to msg.
func (u *USIG) CreateUI(msg crypto.Digest) (UI, error) {
	res, err := u.ecall(opCreateUI, func(st any) (any, error) {
		s := st.(*state)
		s.counter++
		return UI{Issuer: s.id, Counter: s.counter, MAC: uiMAC(s.key, s.id, s.counter, msg)}, nil
	})
	if err != nil {
		return UI{}, err
	}
	return res.(UI), nil
}

// VerifyUI checks that ui is a valid identifier for msg. Verification
// enters the enclave so the shared key never leaves the trust boundary.
func (u *USIG) VerifyUI(ui UI, msg crypto.Digest) error {
	_, err := u.ecall(opVerifyUI, func(st any) (any, error) {
		s := st.(*state)
		if uiMAC(s.key, ui.Issuer, ui.Counter, msg) != ui.MAC {
			return nil, ErrBadUI
		}
		return nil, nil
	})
	return err
}

// Counter returns the current counter value (diagnostics/tests).
func (u *USIG) Counter() (uint64, error) {
	res, err := u.ecall(opCounterRead, func(st any) (any, error) {
		return st.(*state).counter, nil
	})
	if err != nil {
		return 0, err
	}
	return res.(uint64), nil
}
