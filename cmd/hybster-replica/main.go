// Command hybster-replica runs one replica of a Hybster (or baseline)
// group over real TCP, for multi-process or multi-machine deployments.
//
// A three-replica local group:
//
//	hybster-replica -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	hybster-replica -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	hybster-replica -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	hybster-client  -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -ops 1000
//
// The -peers list is positional: entry i is replica i's listen address.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hybster/internal/apps/coordination"
	"hybster/internal/apps/counter"
	"hybster/internal/apps/echo"
	"hybster/internal/audit"
	"hybster/internal/cluster"
	"hybster/internal/config"
	"hybster/internal/enclave"
	"hybster/internal/statemachine"
	"hybster/internal/telemetry"
	"hybster/internal/transport"
)

func main() {
	id := flag.Uint("id", 0, "replica ID (position in -peers)")
	peersFlag := flag.String("peers", "", "comma-separated replica addresses, index = replica ID")
	protoFlag := flag.String("protocol", "hybsterx", "protocol: hybsters, hybsterx, pbft, hybridpbft, minbft")
	pillars := flag.Int("pillars", 0, "pillar count (0 = protocol default)")
	batch := flag.Int("batch", 16, "max requests per consensus instance")
	rotate := flag.Bool("rotate", false, "rotate the proposer over all replicas")
	appFlag := flag.String("app", "echo", "application: echo, counter, coordination")
	keySeed := flag.String("keyseed", "hybster-default", "group key seed (must match on all nodes)")
	dataDir := flag.String("data", "", "data directory for durable crash-recovery (WAL, and sealed counters for hybster; minbft refuses it); empty = in-memory only")
	opsAddr := flag.String("ops", "", "ops endpoint listen address (/metrics, /vars, /trace, /healthz, /readyz, pprof); empty = disabled")
	auditScrape := flag.String("audit-scrape", "", "comma-separated ops-endpoint URLs to audit (e.g. http://h0:9100,http://h1:9100); serves findings at /audit and demotes /readyz on violations; empty = disabled")
	auditEvery := flag.Duration("audit-interval", time.Second, "audit scrape cadence (with -audit-scrape)")
	flag.Parse()

	peers := strings.Split(*peersFlag, ",")
	if len(peers) < 3 {
		log.Fatalf("need at least 3 peers, have %d (use -peers)", len(peers))
	}
	if int(*id) >= len(peers) {
		log.Fatalf("id %d out of range for %d peers", *id, len(peers))
	}

	proto, err := config.ParseProtocol(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg := config.Default(proto)
	cfg.N = len(peers)
	if *pillars > 0 {
		cfg.Pillars = *pillars
	}
	cfg.BatchSize = *batch
	cfg.RotateLeader = *rotate
	cfg.KeySeed = *keySeed
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	peerMap := make(map[uint32]string, len(peers))
	for i, addr := range peers {
		if uint32(i) != uint32(*id) {
			peerMap[uint32(i)] = strings.TrimSpace(addr)
		}
	}
	tel := telemetry.NewFor(proto.String(), uint32(*id))
	ep, err := transport.NewTCPWithOptions(uint32(*id), strings.TrimSpace(peers[*id]), peerMap,
		transport.TCPOptions{Telemetry: tel})
	if err != nil {
		log.Fatal(err)
	}

	app := newApp(*appFlag)
	platform := enclave.NewPlatform(fmt.Sprintf("replica-%d", *id))
	if *dataDir != "" {
		// The seal-sequence register stands in for the SGX monotonic
		// counter: it must survive the process, or sealed counter state
		// could be rolled back undetected across restarts.
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := platform.BindStore(filepath.Join(*dataDir, "sealreg")); err != nil {
			log.Fatal(err)
		}
	}

	replica, err := cluster.NewEngine(cfg, uint32(*id), ep,
		cluster.NodeEnv{Platform: platform, DataDir: *dataDir, Telemetry: tel}, app, enclave.DefaultCostModel)
	if err != nil {
		log.Fatal(err)
	}

	// Trace dumps land next to the replica's durable state; a volatile
	// replica dumps into the system temp directory instead.
	dumpDir := *dataDir
	if dumpDir == "" {
		dumpDir = filepath.Join(os.TempDir(), fmt.Sprintf("hybster-replica-%d", *id))
	}

	// The online protocol auditor: scrape the listed ops endpoints
	// (typically the whole group, this replica included), serve the
	// current report at /audit, and demote /readyz while findings
	// stand — an orchestrator then steers traffic away from a cluster
	// whose invariants broke.
	var monitor *audit.Monitor
	if *auditScrape != "" {
		var sources []audit.Source
		for _, u := range strings.Split(*auditScrape, ",") {
			if u = strings.TrimSpace(u); u != "" {
				sources = append(sources, &audit.HTTPSource{BaseURL: u})
			}
		}
		monitor = audit.NewMonitor(audit.New(audit.Options{}), *auditEvery, sources...)
		monitor.Start()
		defer monitor.Stop()
		log.Printf("replica %d auditing %d ops endpoints every %v", *id, len(sources), *auditEvery)
	}

	if *opsAddr != "" {
		opts := telemetry.OpsOptions{
			Telemetry:    tel,
			Healthz:      replica.Healthz,
			Readyz:       replica.Readyz,
			TraceDumpDir: dumpDir,
			Vars:         func() map[string]any { return map[string]any{"standing": replica.Standing()} },
		}
		if monitor != nil {
			opts.Audit = func() any { return monitor.Report() }
			opts.Readyz = func() error {
				if err := replica.Readyz(); err != nil {
					return err
				}
				return monitor.Healthz()
			}
		}
		ops := telemetry.NewOpsServer(opts)
		if err := ops.Serve(*opsAddr); err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		log.Printf("replica %d ops endpoint on http://%s (/metrics /vars /trace /healthz /readyz /debug/pprof)",
			*id, ops.Addr())
	}

	replica.Start()
	log.Printf("replica %d (%s, %d pillars, app %s) listening on %s",
		*id, proto, cfg.Pillars, *appFlag, ep.Addr())

	// SIGQUIT dumps the protocol trace ring and keeps running, so an
	// operator can snapshot a live replica's recent history (`kill -QUIT`)
	// without the ops endpoint.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			path, err := tel.Tracer().DumpFile(dumpDir)
			if err != nil {
				log.Printf("replica %d trace dump failed: %v", *id, err)
				continue
			}
			log.Printf("replica %d trace ring dumped to %s", *id, path)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("replica %d shutting down (executed up to order %d)", *id, replica.LastExecuted())
	// Stop force-seals any trusted counters and flushes the write-ahead
	// log, so a SIGTERM'd replica restarts from its exact frontier.
	replica.Stop()
	if *dataDir != "" {
		log.Printf("replica %d state saved under %s", *id, *dataDir)
	}
}

func newApp(name string) statemachine.Application {
	switch strings.ToLower(name) {
	case "echo":
		return echo.New(-1)
	case "counter":
		return counter.New()
	case "coordination":
		return coordination.New()
	default:
		log.Fatalf("unknown app %q", name)
		return nil
	}
}
