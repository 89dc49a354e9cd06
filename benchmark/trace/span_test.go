package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "a", Start: 110, End: 140},
		{ID: 3, Parent: 1, Name: "overlaps a", Start: 130, End: 150}, // 130–140 must not count twice
		{ID: 4, Parent: 1, Name: "sticks out", Start: 190, End: 230}, // clipped to 190–200
		{ID: 5, Parent: 2, Name: "grandchild", Start: 115, End: 120}, // covers a, not parent
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 10},
	}
	self, orphans := SelfTimes(spans)
	// parent: 100 − (110..150 = 40) − (190..200 = 10) = 50.
	if got := self[1]; got != 50 {
		t.Errorf("parent self time = %d, want 50", got)
	}
	if got := self[2]; got != 30-5 {
		t.Errorf("child a self time = %d, want 25", got)
	}
	if got := self[5]; got != 5 {
		t.Errorf("leaf self time = %d, want its duration 5", got)
	}
	if len(orphans) != 1 || orphans[0].ID != 6 {
		t.Errorf("orphans = %+v, want span 6 only", orphans)
	}
}

// request emits the nine stamps of one complete request whose stage
// boundaries are the given offsets from t0; leader 0, quorum replica 2.
func request(id ReqID, t0 int64, b [8]int64) []Event {
	return []Event{
		{Kind: InvokeStart, Req: id, T: t0 + b[0]},
		{Kind: ClientSend, Req: id, T: t0 + b[1]},
		{Kind: RequestRecv, Node: 0, Req: id, T: t0 + b[2]},
		{Kind: Propose, Node: 0, Req: id, T: t0 + b[3]},
		{Kind: ExecStart, Node: 2, Req: id, T: t0 + b[4]},
		{Kind: ExecEnd, Node: 2, Req: id, T: t0 + b[5]},
		{Kind: ReplySend, Node: 2, Req: id, T: t0 + b[6]},
		{Kind: QuorumRecv, Node: 2, Req: id, T: t0 + b[6] + 1},
		{Kind: InvokeEnd, Req: id, T: t0 + b[7]},
	}
}

func TestStagesSumToLatency(t *testing.T) {
	a := ReqID{Client: 70000, Seq: 1}
	b := ReqID{Client: 70001, Seq: 5}
	events := append(request(a, 1000, [8]int64{0, 3, 10, 40, 90, 91, 95, 110}),
		request(b, 5000, [8]int64{0, 5, 20, 80, 200, 202, 210, 250})...)
	// Stamps of other replicas and retransmissions must not disturb it:
	// an execution on a replica that did not complete the quorum, a
	// second transmission, an earlier proposal that went nowhere.
	events = append(events,
		Event{Kind: ExecStart, Node: 1, Req: a, T: 1200},
		Event{Kind: ExecEnd, Node: 1, Req: a, T: 1201},
		Event{Kind: ClientSend, Req: b, T: 5100},
		Event{Kind: RequestRecv, Node: 1, Req: b, T: 5012},
		Event{Kind: Propose, Node: 1, Req: b, T: 5015},
	)
	spans, rep := Assemble(events)
	if rep.Requests != 2 || rep.Incomplete != 0 || rep.Orphans != 0 {
		t.Fatalf("report = %+v, want 2 complete requests", rep)
	}
	if len(spans) != 2*(1+len(Stages)) {
		t.Fatalf("%d spans, want a root and %d stages per request", len(spans), len(Stages))
	}
	var sum float64
	for _, s := range Stages {
		sum += rep.StageMean[s]
	}
	if want := float64(110+250) / 2; rep.MeanLatency != want || sum != want {
		t.Errorf("mean latency %v, Σ stage means %v, want both %v", rep.MeanLatency, sum, want)
	}
	if rep.Residual != 0 || rep.ResidualShare() != 0 {
		t.Errorf("residual = %v, want 0: the stages tile the root", rep.Residual)
	}
	// b's proposal is replica 0's at +80 (the last before execution),
	// not replica 1's at +15, so order = 80−20 and agree = 200−80.
	if got, want := rep.StageMean["order"], float64(30+60)/2; got != want {
		t.Errorf("order mean = %v, want %v", got, want)
	}
	if got, want := rep.StageMean["agree"], float64(50+120)/2; got != want {
		t.Errorf("agree mean = %v, want %v", got, want)
	}
}

func TestIncompleteAndOrphanRequestsAreReported(t *testing.T) {
	whole := ReqID{Client: 70000, Seq: 1}
	cached := ReqID{Client: 70000, Seq: 2}   // reply came from the reply cache: no execution stamps
	straddle := ReqID{Client: 70000, Seq: 3} // Invoke started before tracing did
	events := request(whole, 0, [8]int64{0, 1, 2, 3, 4, 5, 6, 10})
	for _, e := range request(cached, 100, [8]int64{0, 1, 2, 3, 4, 5, 6, 30}) {
		if e.Kind != ExecStart && e.Kind != ExecEnd {
			events = append(events, e)
		}
	}
	for _, e := range request(straddle, 200, [8]int64{0, 1, 2, 3, 4, 5, 6, 10}) {
		if e.Kind != InvokeStart {
			events = append(events, e)
		}
	}
	_, rep := Assemble(events)
	if rep.Requests != 2 || rep.Incomplete != 1 || rep.Orphans != 1 {
		t.Fatalf("report = %+v, want 2 rooted requests, 1 incomplete, 1 orphan", rep)
	}
	// The incomplete request's 30 ns have no stage: they are residual.
	if rep.MeanLatency != 20 || rep.Residual != 15 {
		t.Errorf("mean latency %v residual %v, want 20 and 15", rep.MeanLatency, rep.Residual)
	}
	if got := rep.ResidualShare(); got != 0.75 {
		t.Errorf("residual share = %v, want 0.75", got)
	}
}

func TestSamplingIsSharedBySeams(t *testing.T) {
	a, b := NewRecorder(7, 8), NewRecorder(7, 8)
	other := NewRecorder(8, 8)
	sampled, differs := 0, false
	for seq := uint64(1); seq <= 8000; seq++ {
		id := ReqID{Client: 65536 + uint32(seq%32), Seq: seq}
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("two recorders of one seed disagree on %+v", id)
		}
		if a.Sampled(id) {
			sampled++
		}
		if a.Sampled(id) != other.Sampled(id) {
			differs = true
		}
	}
	if sampled < 800 || sampled > 1200 {
		t.Errorf("1-in-8 sampling chose %d of 8000", sampled)
	}
	if !differs {
		t.Error("another seed samples the same requests")
	}
	all := NewRecorder(1, 1)
	if !all.Sampled(ReqID{Client: 65536, Seq: 3}) {
		t.Error("1-in-1 sampling skipped a request")
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	spans := []Span{{ID: 1, Name: Root, Client: 65536, Seq: 2, Start: 5, End: 9}, {ID: 2, Parent: 1, Name: "order", Node: 1, Start: 6, End: 7}}
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"parent":1`) || !strings.Contains(lines[1], `"name":"order"`) {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
}
