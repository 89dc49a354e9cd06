// View-change example (§5.2.3): order requests through a Hybster
// group, crash the leader mid-run, and watch the remaining replicas
// elect a new leader and continue without losing a single committed
// command — the scenario of the paper's Fig. 3 walkthrough.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"hybster/internal/apps/counter"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/core"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
)

func main() {
	cfg := config.Default(config.HybsterS) // sequential basic protocol
	cfg.ViewChangeTimeout = 500 * time.Millisecond

	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return counter.New() })
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	cl, err := c.NewClient(400 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	invoke := func(i int) uint64 {
		res, err := cl.Invoke([]byte{1}, false)
		if err != nil {
			log.Fatalf("op %d: %v", i, err)
		}
		return binary.BigEndian.Uint64(res)
	}

	fmt.Println("phase 1: view 0, replica 0 leads")
	for i := 1; i <= 5; i++ {
		fmt.Printf("  op %d -> counter %d (view %d)\n", i, invoke(i), view(c, 1))
	}

	fmt.Println("phase 2: crashing the leader (replica 0) ...")
	c.Crash(0)

	fmt.Println("phase 3: the group suspects the leader, runs the view change, and recovers")
	start := time.Now()
	for i := 6; i <= 12; i++ {
		v := invoke(i)
		fmt.Printf("  op %d -> counter %d (view %d, %v after crash)\n",
			i, v, view(c, 1), time.Since(start).Round(time.Millisecond))
		if v != uint64(i) {
			log.Fatalf("counter %d != %d: a committed command was lost or duplicated", v, i)
		}
	}
	fmt.Printf("done: no committed command lost; new leader is replica %d\n",
		cfg.LeaderOf(view(c, 1)))
}

func view(c *cluster.Cluster, replica uint32) timeline.View {
	return c.Replica(replica).(*core.Engine).View()
}
