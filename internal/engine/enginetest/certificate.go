// Package enginetest holds the tables the protocol packages' tests run
// against internal/engine's shared rules.
package enginetest

import (
	"slices"
	"testing"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/timeline"
)

// CertificateTable runs the stable-checkpoint certificate rows against
// certified, a protocol's Checkpoints.Certified. sign returns replica
// r's announcement of digest d at order o; forge returns a copy of an
// announcement that the protocol's check refuses.
func CertificateTable[M any](t *testing.T, cfg config.Config, certified func(timeline.Order, crypto.Digest, []M) error,
	sign func(r uint32, o timeline.Order, d crypto.Digest) M, forge func(M) M) {
	const o timeline.Order = 50
	d, q := crypto.Hash([]byte("state")), cfg.Quorum()
	proof := make([]M, q)
	for r := range proof {
		proof[r] = sign(uint32(r), o, d)
	}
	lastIs := func(m M) []M { return append(slices.Clone(proof[:q-1]), m) }
	for _, row := range []struct {
		name     string
		order    timeline.Order
		proof    []M
		accepted bool
	}{
		{"a quorum", o, proof, true},
		{"genesis with an empty proof", 0, nil, true},
		{"f announcements", o, proof[:cfg.F()], false},
		{"a duplicate replica", o, append(slices.Clone(proof), proof[0]), false},
		{"a wrong order", o, lastIs(sign(uint32(q-1), o+1, d)), false},
		{"a wrong digest", o, lastIs(sign(uint32(q-1), o, crypto.Hash([]byte("other")))), false},
		{"one forged announcement", o, lastIs(forge(proof[q-1])), false},
	} {
		if err := certified(row.order, d, row.proof); (err == nil) != row.accepted {
			t.Errorf("%s: err = %v, want accepted = %v", row.name, err, row.accepted)
		}
	}
}
