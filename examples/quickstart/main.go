// Quickstart: boot a three-replica HybsterX group in-process, issue a
// handful of commands against a replicated counter, and read the
// result back — the minimal end-to-end use of the public API.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/statemachine"
)

func main() {
	// 1. Configure HybsterX: n = 2f+1 = 3 replicas, four pillars each.
	cfg := config.Default(config.HybsterX)

	// 2. Boot the replica group on the in-process fabric. Each replica
	//    gets its own simulated SGX platform hosting its TrInX
	//    instances, exactly one per pillar.
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	// 3. Attach a client and issue ordered commands. Each Invoke
	//    returns once f+1 replicas answered with matching results.
	cl, err := c.NewClient(2 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	for i := 1; i <= 10; i++ {
		res, err := cl.Invoke([]byte{1}, false) // add 1
		if err != nil {
			log.Fatalf("invoke %d: %v", i, err)
		}
		fmt.Printf("op %2d -> counter = %d\n", i, binary.BigEndian.Uint64(res))
	}

	// 4. A read-only operation goes through ordering too (no read
	//    optimization — strong consistency).
	res, err := cl.Invoke(nil, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final counter: %d (agreed by f+1 = %d replicas)\n",
		binary.BigEndian.Uint64(res), cfg.F()+1)
}
