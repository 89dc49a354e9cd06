// Coordination-service example (§6.4): a ZooKeeper-style hierarchical
// namespace replicated with HybsterX. Two groups of clients use it for
// classic coordination patterns — service registration (membership)
// and a version-guarded configuration update (optimistic locking).
package main

import (
	"fmt"
	"log"
	"time"

	"hybster/internal/apps/coordination"
	"hybster/internal/client"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/statemachine"
)

func do(cl *client.Client, op coordination.Op, path string, data []byte, version uint64) coordination.Result {
	out, err := cl.Invoke(coordination.EncodeRequest(op, path, data, version), op.IsReadOnly())
	if err != nil {
		log.Fatalf("%v %s: %v", op, path, err)
	}
	res, err := coordination.DecodeResult(out)
	if err != nil {
		log.Fatalf("%v %s: decode: %v", op, path, err)
	}
	return res
}

func main() {
	cfg := config.Default(config.HybsterX)
	c, err := cluster.Boot(cluster.Options{Config: cfg},
		func() statemachine.Application { return coordination.New() })
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	admin, err := c.NewClient(2 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()

	// --- membership: services register themselves under /services ---
	do(admin, coordination.OpCreate, "/services", nil, 0)
	for _, name := range []string{"auth", "billing", "search"} {
		r := do(admin, coordination.OpCreate, "/services/"+name, []byte("host-"+name+":443"), 0)
		fmt.Printf("registered /services/%s (status %v)\n", name, r.Status)
	}
	members := do(admin, coordination.OpChildren, "/services", nil, 0)
	fmt.Printf("current members: %v\n", members.Children)

	// --- versioned config update: two writers race; versions arbitrate ---
	do(admin, coordination.OpCreate, "/config", []byte("v=1"), 0)
	cfgNode := do(admin, coordination.OpGetData, "/config", nil, 0)
	fmt.Printf("config %q at version %d\n", cfgNode.Data, cfgNode.Version)

	writer1, _ := c.NewClient(2 * time.Second)
	defer writer1.Close()
	writer2, _ := c.NewClient(2 * time.Second)
	defer writer2.Close()

	// Both read version 1; only the first conditional update wins.
	r1 := do(writer1, coordination.OpSetData, "/config", []byte("v=2 (writer1)"), cfgNode.Version)
	r2 := do(writer2, coordination.OpSetData, "/config", []byte("v=2 (writer2)"), cfgNode.Version)
	fmt.Printf("writer1 update: %v (new version %d)\n", r1.Status, r1.Version)
	fmt.Printf("writer2 update: %v (expected BadVersion — lost the race)\n", r2.Status)

	final := do(admin, coordination.OpGetData, "/config", nil, 0)
	fmt.Printf("final config: %q at version %d\n", final.Data, final.Version)

	// --- cleanup honors the hierarchy: non-empty nodes refuse deletion ---
	if r := do(admin, coordination.OpDelete, "/services", nil, 0); r.Status != coordination.StatusNotEmpty {
		log.Fatalf("expected NotEmpty, got %v", r.Status)
	}
	fmt.Println("delete of non-empty /services correctly refused")
}
