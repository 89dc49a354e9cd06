package minbft

import (
	"testing"

	"hybster/internal/crypto"
	"hybster/internal/engine/enginetest"
	"hybster/internal/message"
	"hybster/internal/timeline"
)

// TestCheckpointCertificate runs the shared certificate table under
// MinBFT's one-announcement check: a UI from the announcing replica's
// checkpoint USIG.
func TestCheckpointCertificate(t *testing.T) {
	const keySeed = "checkpoint-certificate-test"
	signers := []*Engine{newBareEngine(t, 0, keySeed), newBareEngine(t, 1, keySeed)}
	verifier := newBareEngine(t, 2, keySeed)
	enginetest.CertificateTable(t, verifier.Cfg, verifier.ck.Certified,
		func(r uint32, o timeline.Order, d crypto.Digest) *message.Checkpoint {
			ck := &message.Checkpoint{Order: o, Replica: r, StateDigest: d}
			ui, err := signers[r].sigCkpt.CreateUI(ck.Digest())
			if err != nil {
				t.Fatal(err)
			}
			ck.Cert.Issuer, ck.Cert.Value, ck.Cert.MAC = trinxIssuer(ui.Issuer), ui.Counter, ui.MAC
			return ck
		},
		func(ck *message.Checkpoint) *message.Checkpoint {
			forged := &message.Checkpoint{Order: ck.Order, Replica: ck.Replica, StateDigest: ck.StateDigest, Cert: ck.Cert}
			forged.Cert.MAC[0] ^= 1
			return forged
		})
}
