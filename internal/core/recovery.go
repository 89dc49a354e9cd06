package core

import (
	"fmt"

	"hybster/internal/crypto"
	"hybster/internal/trinx"
)

// Certifier is the trusted-counter surface the engine certifies and
// verifies with. *trinx.TrInX satisfies it for volatile operation;
// *trinx.DurableTrInX adds horizon sealing for crash durability.
type Certifier interface {
	CreateContinuing(tc uint32, value uint64, msg crypto.Digest) (trinx.Certificate, error)
	CreateIndependent(tc uint32, value uint64, msg crypto.Digest) (trinx.Certificate, error)
	CreateTrustedMAC(tc uint32, msg crypto.Digest) (trinx.Certificate, error)
	Verify(cert trinx.Certificate, msg crypto.Digest) error
	VerifyCreateIndependent(in trinx.Certificate, inMsg crypto.Digest, tc uint32, value uint64, msg crypto.Digest) (trinx.Certificate, error)
	Destroy()
}

// newCertifier creates the counter instance for one engine component:
// a durable one on the host's seal store when the replica has a data
// dir, a volatile one otherwise. Durable creation fails with
// trinx.ErrStaleSeal on a rolled-back seal and trinx.ErrAmnesia when
// the platform's seal register proves state existed that the disk no
// longer holds.
func (e *Engine) newCertifier(opts Options, pillar uint32, key crypto.Key) (Certifier, error) {
	id := trinx.MakeInstanceID(opts.ID, pillar)
	if e.Seals == nil {
		return trinx.New(opts.Platform, id, numCounters, key, opts.EnclaveCost).Instrument(opts.Telemetry), nil
	}
	d, err := trinx.NewDurable(opts.Platform, id, numCounters, key, opts.EnclaveCost, e.Seals, 0)
	if err != nil {
		return nil, fmt.Errorf("core: recover counters of %s: %w", id, err)
	}
	d.Instrument(opts.Telemetry)
	e.durables = append(e.durables, d)
	return d, nil
}
