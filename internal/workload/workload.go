// Package workload generates the client workloads of the evaluation:
// fixed-size opaque payloads for the microbenchmarks (§6.2, §6.3) and
// the read/write operation mix against the coordination service
// (§6.4).
package workload

import (
	"fmt"
	"math/rand"

	"hybster/internal/apps/coordination"
)

// Op is one client operation: the request payload plus its read-only
// classification.
type Op struct {
	Payload  []byte
	ReadOnly bool
}

// Generator produces the operation stream of one client.
type Generator interface {
	// Next returns the client's next operation, or false once the
	// stream has ended.
	Next() (Op, bool)
}

// Fixed issues identical opaque write payloads of the given size — the
// microbenchmark workload ("empty results without any calculation").
type Fixed struct {
	payload []byte
	left    int // operations left; negative = endless
}

// NewFixed creates a fixed-payload generator of ops operations (0 =
// endless); size 0 yields empty requests.
func NewFixed(size, ops int) *Fixed {
	if ops == 0 {
		ops = -1
	}
	return &Fixed{payload: make([]byte, size), left: ops}
}

// Next implements Generator.
func (f *Fixed) Next() (Op, bool) {
	if f.left == 0 {
		return Op{}, false
	}
	if f.left > 0 {
		f.left--
	}
	return Op{Payload: f.payload}, true
}

// Coordination issues the §6.4 workload: clients store and retrieve
// znodes with dataSize bytes of data, with the configured fraction of
// reads. Each client works on its own set of keys so creates do not
// collide, and its stream opens with those creates: a load driver's
// warm-up absorbs them like any other operation.
type Coordination struct {
	rng       *rand.Rand
	readRatio float64
	data      []byte
	prefix    string
	keys      int
	created   int // nodes created so far: the prefix, then each key
}

// NewCoordination creates the coordination workload for one client.
// readRatio is the fraction of read (GetData) operations in [0,1].
func NewCoordination(clientID uint32, readRatio float64, dataSize, keys int) *Coordination {
	if keys <= 0 {
		keys = 16
	}
	return &Coordination{
		rng:       rand.New(rand.NewSource(int64(clientID))),
		readRatio: readRatio,
		data:      make([]byte, dataSize),
		prefix:    fmt.Sprintf("/c%d", clientID),
		keys:      keys,
	}
}

func (c *Coordination) key(k int) string {
	return fmt.Sprintf("%s/k%03d", c.prefix, k)
}

// Next implements Generator: first the 1+keys creates of the client's
// key space, then endlessly a GetData with probability readRatio,
// otherwise a SetData, both on a random key of that set.
func (c *Coordination) Next() (Op, bool) {
	if n := c.created; n <= c.keys {
		c.created++
		if n == 0 {
			return Op{Payload: coordination.EncodeRequest(coordination.OpCreate, c.prefix, nil, 0)}, true
		}
		return Op{Payload: coordination.EncodeRequest(coordination.OpCreate, c.key(n-1), c.data, 0)}, true
	}
	k := c.key(c.rng.Intn(c.keys))
	if c.rng.Float64() < c.readRatio {
		return Op{
			Payload:  coordination.EncodeRequest(coordination.OpGetData, k, nil, 0),
			ReadOnly: true,
		}, true
	}
	return Op{Payload: coordination.EncodeRequest(coordination.OpSetData, k, c.data, 0)}, true
}
