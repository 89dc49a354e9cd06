// Command hybster-client drives a TCP-deployed replica group (see
// cmd/hybster-replica) with closed-loop load and reports throughput
// and latency.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"hybster/internal/bench"
	"hybster/internal/client"
	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/stats"
	"hybster/internal/transport"
	"hybster/internal/workload"
)

func main() {
	peersFlag := flag.String("peers", "", "comma-separated replica addresses, index = replica ID")
	protoFlag := flag.String("protocol", "hybsterx", "protocol the group runs (sets n/f expectations)")
	clients := flag.Int("clients", 8, "closed-loop clients")
	ops := flag.Int("ops", 1000, "operations per client (0 = run for -duration)")
	duration := flag.Duration("duration", 10*time.Second, "run length when -ops is 0")
	payload := flag.Int("payload", 0, "request payload bytes")
	keySeed := flag.String("keyseed", "hybster-default", "group key seed (must match replicas)")
	rotate := flag.Bool("rotate", false, "group runs with rotating proposer")
	flag.Parse()

	peers := strings.Split(*peersFlag, ",")
	if len(peers) < 3 {
		log.Fatalf("need at least 3 peers (use -peers)")
	}
	proto, err := config.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg := config.Default(proto)
	cfg.N = len(peers)
	cfg.KeySeed = *keySeed
	cfg.RotateLeader = *rotate

	// Each process takes a distinct client-ID block: request sequence
	// numbers restart at 1 in a new process, and replicas deduplicate
	// per client ID, so reusing IDs across runs would make every
	// request look stale.
	nextID := crypto.ClientIDBase + uint32(time.Now().UnixNano()&0x3FFF)<<8
	dial := func() (*client.Client, error) {
		cid := nextID
		nextID++
		ep, err := transport.NewTCP(cid, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		for r, addr := range peers {
			ep.AddPeer(uint32(r), strings.TrimSpace(addr))
		}
		return client.New(client.Options{Config: cfg, ID: cid, Endpoint: ep, Timeout: 2 * time.Second})
	}

	// A bounded run ends with its generators, not with a window.
	window := *duration
	if *ops > 0 {
		window = math.MaxInt64
	}
	start := time.Now()
	tput, sum, err := bench.RunLoad(dial, *clients, 0, window,
		func(uint32) workload.Generator { return workload.NewFixed(*payload, *ops) })

	fmt.Printf("clients=%d ops=%d elapsed=%v\n", *clients, sum.Count, time.Since(start).Round(time.Millisecond))
	fmt.Printf("throughput: %s\n", stats.FormatOps(tput))
	fmt.Printf("latency: avg=%v p50=%v p90=%v p99=%v max=%v\n", sum.Avg, sum.P50, sum.P90, sum.P99, sum.Max)
	// Scripts take this exit status to mean "the load committed".
	if err != nil {
		log.Fatal(err)
	}
	if sum.Count == 0 {
		log.Fatal("no operation committed")
	}
}
