GO ?= go

# Per-target budget of the fuzz smoke (make fuzz-smoke / CI).
FUZZTIME ?= 20s

.PHONY: build test test-race vet loc wire-golden chaos-smoke chaos-long fuzz-smoke bench bench-smoke bench-hotpath benchmark benchmark-test ops-demo audit-demo audit-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Non-test lines per internal package, of cmd/ and of both together:
# the numbers the "less code" items in ROADMAP.md are measured by.
loc:
	@for d in internal/*/ cmd/ 'internal cmd'; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; done

# Regenerate the byte-level wire fixture from the current codec. The
# only way internal/message/testdata/wire.golden changes: a wire change
# is "edit the walk, make wire-golden, list the changed types in
# CHANGES.md". CI runs this and fails if the file moves.
wire-golden:
	$(GO) test -count=1 -run 'TestWireGolden' ./internal/message/ -update

# Short seeded chaos run: all four protocols under link faults,
# a partition window, and a crash-restart, with the race detector on;
# then the engine's concurrency-sensitive unit tests (every sequencer
# pin: admission against credits, the hold on a busy proposer and its
# timer flush without a credit, the batch cut, the reset clamp, the
# demoted relay; host routing order and teardown), Hybster's
# skipped-view wedge and relayed NEW-VIEWs, driven tick by tick, and the
# pillar's one-ECALL steps (a forged PREPARE at the cursor, surplus
# and needed COMMITs), repeated; then the durable restarts (cold,
# graceful, amnesia, stale seal), repeated; then a follower of every
# protocol isolated four windows behind and healed, once under load and
# once quietly (load stopped, one request at a non-boundary order, which
# must bring it to the group's stable checkpoint by state transfer),
# whose standing is written by its coordinator loop while the test
# reads it, repeated;
# then the install step of every protocol, whose follower missed the
# VIEW-CHANGEs and must adopt the NEW-VIEW's checkpoint claim, repeated;
# then a follower of every protocol whose application blocks for two
# view-change timeouts under load: its watchdog fires alone, and it must
# stay in the group's view and go on committing, repeated;
# then the client, whose pending records are recycled across requests
# while late replies and Close race them; then the memnet contract, whose
# idle links deliver on the sender's goroutine (re-entrant sends
# between two handlers included), repeated.
chaos-smoke:
	$(GO) test -race -short -count=1 -run 'TestChaos' ./internal/chaos/...
	$(GO) test -race -count=20 -run 'TestSequencer|TestHost' ./internal/engine/
	$(GO) test -race -count=20 -run 'TestSkippedViewEvidenceReachesPendingPeer|TestNewViewRelayedByNonLeaderInstalls|TestRestartedLeaderDoesNotReinstallItsView|TestForgedPrepareAtCursorLeavesNoTrace|TestCommitCostsAnECallOnlyWhenNeeded' ./internal/core/
	$(GO) test -race -count=10 -run 'TestColdRestart|TestGracefulShutdownResumesWarm|TestAmnesiaZombieRefused|TestStaleSealRefused' ./internal/cluster/
	$(GO) test -race -count=20 -run 'TestStandingSaysWhyAReplicaIsBehind' ./internal/cluster/
	$(GO) test -race -count=20 -run 'TestInstallAdoptsTheNewViewCheckpointClaim' ./internal/cluster/
	$(GO) test -race -count=20 -run 'TestALoneTimeoutKeepsTheReplicaInItsView' ./internal/cluster/
	$(GO) test -race -count=20 ./internal/client/
	$(GO) test -race -count=20 -run 'TestMemnetContract' ./internal/transport/

# Long seed sweep with elevated fault rates, alternating cold-restart
# and amnesia recovery. Tune with CHAOS_LONG_SEEDS / CHAOS_LONG_HORIZON.
chaos-long:
	CHAOS_LONG=1 $(GO) test -count=1 -timeout 45m \
		-run 'TestChaosLongDurableSweep' -v ./internal/chaos/

# Coverage-guided fuzzing smoke: every Fuzz target in the tree gets
# $(FUZZTIME) of mutation (Go allows one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/message/
	$(GO) test -run '^$$' -fuzz 'FuzzViewChangeRoundtrip$$' -fuzztime $(FUZZTIME) ./internal/message/
	$(GO) test -run '^$$' -fuzz 'FuzzDecoderPrimitives$$' -fuzztime $(FUZZTIME) ./internal/message/
	$(GO) test -run '^$$' -fuzz 'FuzzPooledBufferAliasing$$' -fuzztime $(FUZZTIME) ./internal/message/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameStream$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz 'FuzzMACKeyMatchesHMAC$$' -fuzztime $(FUZZTIME) ./internal/crypto/

bench:
	$(GO) test -bench=. -benchmem

# Telemetry-overhead gate: the instrumented enclave hot path must run,
# not just compile. 100 iterations is a smoke, not a measurement; the
# in-test overhead assertion is what matters.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead' -benchtime 100x ./internal/trinx/

# Hot-path benchmark suite: alloc/latency profile of pooled MACs, cached
# digests, marshal-once multicast, mailboxes, the memnet send→handler path
# (saturated, and a round trip over idle links), the TCP request/reply
# stream over loopback sockets (frames per write and read), a replica's
# inbound route (authenticator check and mailbox hand-off), the client's
# Invoke wait path and the full
# prepare→commit→exec path (with the group's TrInX ECALLs per request,
# ecalls/op).
# Writes BENCH_hotpath.txt (standard go-test bench output); CI uploads
# it as an artifact. Tune iteration time with HOTPATH_BENCHTIME.
HOTPATH_BENCHTIME ?= 0.3s

bench-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkHotPath' -benchmem \
		-benchtime $(HOTPATH_BENCHTIME) \
		./internal/crypto/ ./internal/message/ ./internal/cop/ ./internal/transport/ ./internal/engine/ ./internal/client/ ./internal/reply/ ./internal/cluster/ \
		| tee BENCH_hotpath.txt

# The repository benchmark (BENCHMARK.json): five workloads end to end
# and traced, ≈ 3.5 min. For one workload or a seed, call run.sh itself.
benchmark:
	bash benchmark/run.sh

# benchmark/ is a module of its own, so `go test ./...` at the root
# never compiles it: vet and test it here (CI does) or it rots silently
# when a package it calls changes.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Live observability demo: boots a 3-replica TCP group with -ops,
# commits client load, and scrapes /metrics + health probes.
ops-demo:
	sh scripts/ops-demo.sh

# Live auditing demo: boots a 3-replica TCP group with replica 0 as
# the online auditor, commits load, asserts zero findings, then runs
# the offline trace-merge auditor over every replica's ring dump.
audit-demo:
	sh scripts/audit-demo.sh

# Audited chaos smoke: the fork-detection test plus a short clean soak
# with the auditor attached to every run, under the race detector.
audit-smoke:
	$(GO) test -race -short -count=1 -run 'TestChaosAudit' ./internal/chaos/
