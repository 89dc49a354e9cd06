package wal

import (
	"testing"
)

// FuzzDecodeRecord hammers the WAL record decoder with arbitrary bytes.
// The decoder sits on the crash-recovery path, where it reads whatever a
// dying process left on disk, so it must never panic and must report
// damage as ErrCorrupt rather than returning half-parsed records.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{recDecision})
	f.Add([]byte{recCheckpoint})
	f.Add(testDecision(0, 1, 1).encode())
	f.Add(testDecision(3, 1<<40, 99).encode())
	f.Add(testCheckpoint(8).encode())
	f.Add(testPBFTCheckpoint(16).encode())
	f.Add((&CheckpointRec{Order: 16}).encode()) // nil snapshot/rv/proof
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("error %v with non-nil record %T", err, rec)
			}
			return
		}
		// A successful decode must normalize: re-encoding the decoded
		// record and decoding that again must reach a fixed point. (The
		// embedded message codec is deliberately lenient — e.g. any
		// nonzero byte decodes as true — so the first re-encode may
		// differ from the raw input, but never from the second.)
		reencode := func(r any) []byte {
			switch v := r.(type) {
			case *DecisionRec:
				return v.encode()
			case *CheckpointRec:
				return v.encode()
			default:
				t.Fatalf("unexpected record type %T", r)
				return nil
			}
		}
		once := reencode(rec)
		rec2, err := DecodeRecord(once)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if twice := reencode(rec2); string(once) != string(twice) {
			t.Fatalf("encoding not a fixed point:\n once  %x\n twice %x", once, twice)
		}
	})
}
