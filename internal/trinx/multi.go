package trinx

import (
	"fmt"

	"hybster/internal/crypto"
	"hybster/internal/enclave"
)

// MultiHost is the Multi-TrInX variant of §6.1: many TrInX instances
// hosted inside a single trusted execution environment that all threads
// enter. Each instance keeps its own counters (laid out in separate
// allocations, the "not on the same cache line" care of the paper), but
// entry into the shared enclave serializes — the synchronization
// overhead that makes Multi-TrInX fall behind the multiplied variant at
// higher core counts (Fig. 5a).
type MultiHost struct {
	enc *enclave.Enclave
}

// multiHostState is the enclave-private state of the shared enclave:
// the instance table.
type multiHostState struct {
	key       *crypto.MACKey
	instances map[InstanceID]*state
}

// NewMultiHost creates the shared enclave.
func NewMultiHost(p *enclave.Platform, key crypto.Key, cost enclave.CostModel) *MultiHost {
	enc := enclave.Create(p, "multi-trinx", cost, func() any {
		return &multiHostState{key: crypto.NewMACKey(key), instances: make(map[InstanceID]*state)}
	})
	return &MultiHost{enc: enc}
}

// Instance registers (or retrieves) the TrInX instance id inside the
// shared enclave and returns a handle to it. The handle has the same
// API as a dedicated-enclave instance, but all handles contend on the
// single enclave entry.
func (h *MultiHost) Instance(id InstanceID, numCounters int) (*TrInX, error) {
	_, err := h.enc.ECall(func(st any) (any, error) {
		s := st.(*multiHostState)
		if existing, ok := s.instances[id]; ok {
			if len(existing.counters) != numCounters {
				return nil, fmt.Errorf("trinx: instance %s already registered with %d counters", id, len(existing.counters))
			}
			return nil, nil
		}
		s.instances[id] = &state{id: id, key: s.key, counters: make([]uint64, numCounters)}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return &TrInX{id: id, enc: h.enc.WithView(func(st any) any {
		return st.(*multiHostState).instances[id]
	})}, nil
}

// Destroy tears down the shared enclave and with it all hosted
// instances.
func (h *MultiHost) Destroy() { h.enc.Destroy() }
