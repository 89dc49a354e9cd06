package audit

import (
	"strings"
	"testing"
	"time"

	"hybster/internal/engine"
	"hybster/internal/telemetry"
	"hybster/internal/timeline"
)

// at is the standing of a replica that executed up to exec.
func at(exec timeline.Order) *engine.Standing { return &engine.Standing{Executed: exec} }

// ev builds a synthetic trace event with a shared clock origin: every
// event's wall clock sits exactly 1s ahead of its monotonic clock.
func ev(replica uint32, seq uint64, kind telemetry.EventKind, view, slot uint64, pillar uint32, digest string) telemetry.Event {
	return telemetry.Event{
		Seq: seq, TS: int64(time.Second) + int64(seq)*1000, Mono: int64(seq) * 1000,
		Replica: replica, Protocol: "HybsterX",
		Kind: kind, View: view, Slot: slot, Pillar: pillar, Digest: digest,
	}
}

func TestMergeSharedOriginOrdersByMono(t *testing.T) {
	d0 := &telemetry.TraceDump{Replica: 0, Protocol: "HybsterX", Events: []telemetry.Event{
		ev(0, 0, telemetry.EvPropose, 0, 1, 0, "aa"),
		ev(0, 4, telemetry.EvDeliver, 0, 1, 0, "aa"),
	}}
	// The second dump's events are untagged (Replica 0 in the event);
	// the header must override.
	d1 := &telemetry.TraceDump{Replica: 1, Protocol: "HybsterX", Events: []telemetry.Event{
		ev(0, 2, telemetry.EvPrepare, 0, 1, 0, "aa"),
	}}
	merged := Merge(d0, d1)
	if len(merged) != 3 {
		t.Fatalf("merged %d events, want 3", len(merged))
	}
	kinds := []telemetry.EventKind{merged[0].Kind, merged[1].Kind, merged[2].Kind}
	want := []telemetry.EventKind{telemetry.EvPropose, telemetry.EvPrepare, telemetry.EvDeliver}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("merged order %v, want %v", kinds, want)
		}
	}
	if merged[1].Replica != 1 {
		t.Fatalf("header did not override event replica: got r%d", merged[1].Replica)
	}
}

func TestMergeCrossProcessFallsBackToWallClock(t *testing.T) {
	// Two streams whose monotonic origins are hours apart (separate
	// processes): mono ordering would interleave them wrongly; wall
	// ordering must win.
	e0 := ev(0, 0, telemetry.EvPropose, 0, 1, 0, "aa")
	e0.TS = int64(10 * time.Second)
	e0.Mono = int64(9 * time.Second) // origin 1s
	e1 := ev(1, 0, telemetry.EvPrepare, 0, 1, 0, "aa")
	e1.TS = int64(11 * time.Second)
	e1.Mono = int64(time.Second) // origin 10s — different process
	d0 := &telemetry.TraceDump{Replica: 0, Events: []telemetry.Event{e0}}
	d1 := &telemetry.TraceDump{Replica: 1, Events: []telemetry.Event{e1}}
	merged := Merge(d1, d0)
	if merged[0].Kind != telemetry.EvPropose || merged[1].Kind != telemetry.EvPrepare {
		t.Fatalf("cross-process merge ordered by mono, want wall: %v then %v", merged[0].Kind, merged[1].Kind)
	}
}

func TestBuildSpansStages(t *testing.T) {
	var events []telemetry.Event
	seq := uint64(0)
	add := func(r uint32, kind telemetry.EventKind, slot uint64, at int64, digest string) {
		e := ev(r, seq, kind, 0, slot, 0, digest)
		e.Mono = at
		e.TS = int64(time.Second) + at
		seq++
		events = append(events, e)
	}
	for slot := uint64(1); slot <= 2; slot++ {
		base := int64(slot) * 1000
		add(0, telemetry.EvPropose, slot, base, "aa")
		add(1, telemetry.EvPrepare, slot, base+100, "aa")
		add(1, telemetry.EvCommit, slot, base+250, "aa")
		add(0, telemetry.EvDeliver, slot, base+400, "aa")
		exec := ev(0, seq, telemetry.EvExec, 0, slot, 0, "")
		exec.Mono = base + 900
		exec.TS = int64(time.Second) + base + 900
		seq++
		events = append(events, exec)
	}
	report := BuildSpans(Merge(&telemetry.TraceDump{Replica: 0, Events: events}))
	if !report.SharedClock {
		t.Fatal("expected shared clock")
	}
	if len(report.Spans) != 2 || report.Complete != 2 {
		t.Fatalf("spans=%d complete=%d, want 2/2", len(report.Spans), report.Complete)
	}
	for _, st := range report.Stages {
		if st.Count != 2 {
			t.Fatalf("stage %s count=%d, want 2", st.Stage, st.Count)
		}
	}
	var sb strings.Builder
	if err := WriteSpanReport(&sb, report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "propose→exec") {
		t.Fatalf("span report missing end-to-end stage:\n%s", sb.String())
	}
}

// TestAuditorDigestDivergence pins the PR 8 bug class: replicas that
// committed, delivered, or checkpointed different digests at the same
// coordinate must be flagged, once per coordinate.
func TestAuditorDigestDivergence(t *testing.T) {
	a := New(Options{})
	// Same (view, slot, pillar) commit, different digests.
	commit := []Sample{
		{Replica: 0, Events: []telemetry.Event{ev(0, 0, telemetry.EvCommit, 0, 5, 1, "aaaa")}},
		{Replica: 1, Events: []telemetry.Event{ev(1, 0, telemetry.EvCommit, 0, 5, 1, "bbbb")}},
	}
	a.Observe(commit)
	// Delivery divergence across views: slot 7 delivered as X in view
	// 0 on one replica and as Y in view 3 on another — still a
	// violation (delivery is forever).
	a.Observe([]Sample{
		{Replica: 0, Events: []telemetry.Event{ev(0, 1, telemetry.EvDeliver, 0, 7, 0, "xxxx")}},
		{Replica: 1, Events: []telemetry.Event{ev(1, 1, telemetry.EvDeliver, 3, 7, 0, "yyyy")}},
	})
	// Checkpoint divergence at the same order.
	a.Observe([]Sample{
		{Replica: 0, Events: []telemetry.Event{ev(0, 2, telemetry.EvCkptStable, 0, 8, 0, "cccc")}},
		{Replica: 2, Events: []telemetry.Event{ev(2, 0, telemetry.EvCheckpoint, 1, 8, 0, "dddd")}},
	})
	findings := a.Findings()
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3: %+v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Kind != DigestDivergence {
			t.Fatalf("finding kind %s, want %s", f.Kind, DigestDivergence)
		}
		if len(f.Digests) != 2 || len(f.Replicas) != 2 {
			t.Fatalf("finding missing digests/replicas: %+v", f)
		}
	}
	// Re-observing the same streams must not duplicate findings.
	a.Observe(commit)
	if n := len(a.Findings()); n != 3 {
		t.Fatalf("re-observation duplicated findings: %d", n)
	}
	if a.Healthz() == nil {
		t.Fatal("Healthz nil with findings present")
	}
}

func TestAuditorAgreementIsClean(t *testing.T) {
	a := New(Options{})
	a.EnableLiveness(true)
	exec := timeline.Order(0)
	for round := 0; round < 10; round++ {
		exec += 8
		var samples []Sample
		for r := uint32(0); r < 3; r++ {
			samples = append(samples, Sample{
				Replica:  r,
				Standing: &engine.Standing{Executed: exec, Stable: exec - 8},
				Events: []telemetry.Event{
					ev(r, uint64(round)*2, telemetry.EvCommit, 0, uint64(exec), 0, "feed"),
					ev(r, uint64(round)*2+1, telemetry.EvDeliver, 0, uint64(exec), 0, "feed"),
				},
			})
		}
		a.Observe(samples)
	}
	if f := a.Findings(); len(f) != 0 {
		t.Fatalf("clean cluster produced findings: %+v", f)
	}
	if err := a.Healthz(); err != nil {
		t.Fatalf("Healthz on clean cluster: %v", err)
	}
}

func TestAuditorFrontierStall(t *testing.T) {
	a := New(Options{FrontierStallGap: 4, StallRounds: 2})
	a.EnableLiveness(true)
	run := func(a *Auditor, exemptLagger bool, rounds int) {
		exec := timeline.Order(0)
		for round := 0; round < rounds; round++ {
			exec += 10
			lagger := &engine.Standing{Executed: 5, Committed: 5, View: 1}
			if exemptLagger {
				lagger = nil
			}
			samples := []Sample{
				{Replica: 0, Standing: at(exec)},
				{Replica: 1, Standing: at(exec)},
				{Replica: 2, Standing: lagger},
			}
			a.Observe(samples)
		}
	}
	run(a, false, 5)
	findings := a.Findings()
	if len(findings) != 1 || findings[0].Kind != FrontierStall {
		t.Fatalf("findings %+v, want one frontier-stall", findings)
	}
	if len(findings[0].Replicas) != 1 || findings[0].Replicas[0] != 2 {
		t.Fatalf("stall blamed %v, want [2]", findings[0].Replicas)
	}
	// The finding says where the stalled replica stood.
	if st := findings[0].Standing; st == nil || st.Executed != 5 || st.View != 1 {
		t.Fatalf("stall finding carries standing %+v, want replica 2's", st)
	}
	if !strings.Contains(findings[0].Detail, "standing: view=1 exec=5") {
		t.Fatalf("stall detail does not end in the standing: %s", findings[0].Detail)
	}

	// The same outage with the lagger exempted (harness took it down
	// on purpose) must stay silent.
	b := New(Options{FrontierStallGap: 4, StallRounds: 2})
	b.EnableLiveness(true)
	run(b, true, 5)
	if f := b.Findings(); len(f) != 0 {
		t.Fatalf("exempt replica still flagged: %+v", f)
	}
}

func TestAuditorViewChangeStorm(t *testing.T) {
	a := New(Options{StormViews: 3, StormRounds: 4})
	a.EnableLiveness(true)
	for round := 0; round < 6; round++ {
		a.Observe([]Sample{{
			Replica:  1,
			Standing: &engine.Standing{Executed: 40, View: timeline.View(round)},
		}})
	}
	findings := a.Findings()
	if len(findings) == 0 || findings[0].Kind != ViewChangeStorm {
		t.Fatalf("findings %+v, want a view-change-storm", findings)
	}

	// Views advancing alongside execution progress is recovery, not a
	// storm.
	b := New(Options{StormViews: 3, StormRounds: 4})
	b.EnableLiveness(true)
	for round := 0; round < 6; round++ {
		b.Observe([]Sample{{
			Replica:  1,
			Standing: &engine.Standing{Executed: timeline.Order(40 + round), View: timeline.View(round)},
		}})
	}
	if f := b.Findings(); len(f) != 0 {
		t.Fatalf("progressing view changes flagged as storm: %+v", f)
	}
}

func TestAuditorDeafStream(t *testing.T) {
	a := New(Options{DeafRounds: 2})
	a.EnableLiveness(true)
	for round := 0; round < 3; round++ {
		a.Observe([]Sample{{
			Replica:  2,
			Standing: &engine.Standing{Executed: timeline.Order(10 + round), Deaf: 3},
		}})
	}
	findings := a.Findings()
	if len(findings) != 1 || findings[0].Kind != DeafStream {
		t.Fatalf("findings %+v, want one deaf-stream", findings)
	}
	if !strings.Contains(findings[0].Detail, "has 3 deaf sender stream(s)") || !strings.HasSuffix(findings[0].Detail, "deaf=3 desired=0") {
		t.Fatalf("deaf finding does not count the streams: %s", findings[0].Detail)
	}
}

func TestAuditorCheckpointLag(t *testing.T) {
	a := New(Options{CheckpointLagMax: 100, LagRounds: 2})
	a.EnableLiveness(true)
	for round := 0; round < 3; round++ {
		a.Observe([]Sample{{
			Replica:  0,
			Standing: &engine.Standing{Executed: timeline.Order(500 + round), Stable: 8},
		}})
	}
	findings := a.Findings()
	if len(findings) != 1 || findings[0].Kind != CheckpointLag {
		t.Fatalf("findings %+v, want one checkpoint-lag", findings)
	}
}

// TestAuditorLivenessGate: observations made while liveness checks
// are disarmed (a harness-induced outage) must not seed streaks that
// fire right after arming.
func TestAuditorLivenessGate(t *testing.T) {
	a := New(Options{FrontierStallGap: 4, StallRounds: 2})
	exec := timeline.Order(0)
	for round := 0; round < 5; round++ {
		exec += 10
		a.Observe([]Sample{
			{Replica: 0, Standing: at(exec)},
			{Replica: 1, Standing: at(exec)},
			{Replica: 2, Standing: at(5)},
		})
	}
	if f := a.Findings(); len(f) != 0 {
		t.Fatalf("disarmed auditor raised liveness findings: %+v", f)
	}
	// Arm, then let replica 2 catch up immediately: still clean.
	a.EnableLiveness(true)
	for round := 0; round < 3; round++ {
		exec += 10
		a.Observe([]Sample{
			{Replica: 0, Standing: at(exec)},
			{Replica: 1, Standing: at(exec)},
			{Replica: 2, Standing: at(exec)},
		})
	}
	if f := a.Findings(); len(f) != 0 {
		t.Fatalf("healed cluster flagged after arming: %+v", f)
	}
}

func TestHTTPSourceScrapesOpsServer(t *testing.T) {
	tel := telemetry.NewFor("HybsterX", 3)
	tel.Counter("hybster_test_total", "test counter").Add(7)
	tel.TraceDigest(telemetry.EvCommit, 2, 9, 1, []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, "")
	standing := engine.Standing{View: 2, Pending: 3, Desired: 3, VCHolders: []uint32{1, 3}, Executed: 9, Committed: 12, Stable: 8}
	ops := telemetry.NewOpsServer(telemetry.OpsOptions{Telemetry: tel,
		Vars: func() map[string]any { return map[string]any{"standing": standing} }})
	if err := ops.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ops.Close()

	src := &HTTPSource{BaseURL: "http://" + ops.Addr()}
	s, err := src.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if s.Replica != 3 {
		t.Fatalf("sample identity r%d, want r3", s.Replica)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != telemetry.EvCommit || s.Events[0].Digest == "" {
		t.Fatalf("trace scrape wrong: %+v", s.Events)
	}
	if s.Standing == nil || s.Standing.String() != standing.String() {
		t.Fatalf("standing scraped from /vars as %v, want %v", s.Standing, standing)
	}
}

func TestMonitorPollAndHealthDemotion(t *testing.T) {
	tel0 := telemetry.NewFor("HybsterX", 0)
	tel1 := telemetry.NewFor("HybsterX", 1)
	a := New(Options{})
	m := NewMonitor(a, time.Hour,
		TelemetrySource(0, tel0, nil),
		TelemetrySource(1, tel1, nil),
	)
	tel0.TraceDigest(telemetry.EvCommit, 0, 4, 0, []byte("same-digest"), "")
	tel1.TraceDigest(telemetry.EvCommit, 0, 4, 0, []byte("same-digest"), "")
	m.Poll()
	if err := m.Healthz(); err != nil {
		t.Fatalf("healthy cluster demoted: %v", err)
	}
	// Now replica 1 commits a different digest at the same coordinate.
	tel1.TraceDigest(telemetry.EvCommit, 0, 5, 0, []byte("digest-A\x00\x00"), "")
	tel0.TraceDigest(telemetry.EvCommit, 0, 5, 0, []byte("digest-B\x00\x00"), "")
	m.Poll()
	if err := m.Healthz(); err == nil {
		t.Fatal("divergence did not demote health")
	}
	report := m.Report()
	if report.Rounds != 2 || len(report.Findings) != 1 {
		t.Fatalf("report rounds=%d findings=%d, want 2/1", report.Rounds, len(report.Findings))
	}
	if report.Findings[0].Kind != DigestDivergence {
		t.Fatalf("finding kind %s", report.Findings[0].Kind)
	}

	// A failing source degrades to a scrape error, not a wedge.
	bad := NewMonitor(New(Options{}), time.Hour, SourceFunc(func() (Sample, error) {
		return Sample{}, errFake
	}))
	bad.Poll()
	if r := bad.Report(); r.ScrapeErrors != 1 || r.LastScrapeError == "" {
		t.Fatalf("scrape failure not surfaced: %+v", r)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake scrape failure" }
