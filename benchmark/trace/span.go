package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// Span is one interval of one request's life. Root spans ("invoke")
// have Parent 0; every stage span names its root as Parent.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Client uint32 `json:"client"`
	Seq    uint64 `json:"seq"`
	Name   string `json:"name"`
	// Node is the replica the span's END was stamped at (0 for spans
	// that end at the client).
	Node  uint32 `json:"node"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// Duration is End − Start.
func (s Span) Duration() int64 { return s.End - s.Start }

// Root is the name of a request's top-level span.
const Root = "invoke"

// Stages are the children of a root span, in critical-path order. They
// tile the root: each starts where the previous one ended.
var Stages = []string{"client_send", "ingress", "order", "agree", "execute", "reply", "egress"}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (overlapping children are not
// counted twice, and a child reaching outside its parent is clipped).
// orphans lists spans whose Parent is set but absent from the input.
func SelfTimes(spans []Span) (self map[uint64]int64, orphans []Span) {
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			orphans = append(orphans, s)
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self = make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - cover(s, children[s.ID])
	}
	return self, orphans
}

// cover is the length of the union of the children's intervals clipped
// to the parent.
func cover(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// Report is the stage decomposition of a traced run.
type Report struct {
	// Requests is the number of sampled requests with a complete root
	// span; Incomplete of those lack a stamp some stage needs (a reply
	// served from the reply cache, a proposal carried by a NEW-VIEW) and
	// have no stage spans, so their whole latency is root self time.
	Requests, Incomplete int
	// Orphans counts events of requests that never got a root span
	// (their Invoke straddled the start or end of tracing, or failed).
	Orphans int
	// MeanLatency is the mean root duration in nanoseconds.
	MeanLatency float64
	// StageMean is the mean self time of each stage over ALL rooted
	// requests (an incomplete request contributes zero to every stage),
	// so that Σ StageMean + mean root self time = MeanLatency exactly.
	StageMean map[string]float64
	// Residual is the mean root self time: latency no stage accounts for.
	Residual float64
}

// ResidualShare is Residual ÷ MeanLatency (0 for an empty report).
func (r Report) ResidualShare() float64 {
	if r.MeanLatency == 0 {
		return 0
	}
	return r.Residual / r.MeanLatency
}

// reqStamps gathers one request's events.
type reqStamps struct {
	invokeStart, invokeEnd, clientSend int64
	has                                [InvokeEnd + 1]bool
	quorumNode                         uint32
	quorumT                            int64
	recv, propose                      []Event // any replica
	execStart, execEnd, replySend      map[uint32]int64
}

// Assemble joins events into spans — one root per request whose Invoke
// start and end were both seen, tiled by the seven stages when every
// stamp on its critical path exists — and summarises them.
//
// The critical path of request r: the client sends it; the proposer P
// (the replica whose proposal carrying r was the last one sent before
// execution) receives it and proposes; the replica Q whose reply
// completed the client's quorum executes it and sends that reply.
func Assemble(events []Event) ([]Span, Report) {
	reqs := make(map[ReqID]*reqStamps)
	get := func(id ReqID) *reqStamps {
		s := reqs[id]
		if s == nil {
			s = &reqStamps{execStart: map[uint32]int64{}, execEnd: map[uint32]int64{}, replySend: map[uint32]int64{}}
			reqs[id] = s
		}
		return s
	}
	for _, e := range events {
		s := get(e.Req)
		first := !s.has[e.Kind]
		s.has[e.Kind] = true
		switch e.Kind {
		case InvokeStart:
			s.invokeStart = e.T
		case InvokeEnd:
			s.invokeEnd = e.T
		case ClientSend:
			if first || e.T < s.clientSend {
				s.clientSend = e.T
			}
		case RequestRecv:
			s.recv = append(s.recv, e)
		case Propose:
			s.propose = append(s.propose, e)
		case ExecStart:
			s.execStart[e.Node] = e.T
		case ExecEnd:
			s.execEnd[e.Node] = e.T
		case ReplySend:
			if _, dup := s.replySend[e.Node]; !dup {
				s.replySend[e.Node] = e.T
			}
		case QuorumRecv:
			if first {
				s.quorumNode, s.quorumT = e.Node, e.T
			}
		}
	}

	ids := make([]ReqID, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Client != ids[j].Client {
			return ids[i].Client < ids[j].Client
		}
		return ids[i].Seq < ids[j].Seq
	})

	var spans []Span
	rep := Report{StageMean: make(map[string]float64, len(Stages))}
	var nextID uint64
	for _, id := range ids {
		s := reqs[id]
		if !s.has[InvokeStart] || !s.has[InvokeEnd] {
			rep.Orphans++
			continue
		}
		nextID++
		root := Span{ID: nextID, Client: id.Client, Seq: id.Seq, Name: Root, Start: s.invokeStart, End: s.invokeEnd}
		spans = append(spans, root)
		rep.Requests++
		bounds, nodes, ok := s.criticalPath()
		if !ok {
			rep.Incomplete++
			continue
		}
		for i, name := range Stages {
			nextID++
			spans = append(spans, Span{ID: nextID, Parent: root.ID, Client: id.Client, Seq: id.Seq,
				Name: name, Node: nodes[i], Start: bounds[i], End: bounds[i+1]})
		}
	}

	self, _ := SelfTimes(spans)
	for _, sp := range spans {
		if sp.Parent == 0 {
			rep.MeanLatency += float64(sp.Duration())
			rep.Residual += float64(self[sp.ID])
		} else {
			rep.StageMean[sp.Name] += float64(self[sp.ID])
		}
	}
	if n := float64(rep.Requests); n > 0 {
		rep.MeanLatency /= n
		rep.Residual /= n
		for name := range rep.StageMean {
			rep.StageMean[name] /= n
		}
	}
	return spans, rep
}

// criticalPath returns the eight stage boundaries of a request and the
// node each stage ends at; ok is false when a stamp is missing or the
// stamps are not in causal order.
func (s *reqStamps) criticalPath() (bounds [8]int64, nodes [7]uint32, ok bool) {
	if !s.has[ClientSend] || !s.has[QuorumRecv] {
		return bounds, nodes, false
	}
	q := s.quorumNode
	execStart, ok1 := s.execStart[q]
	execEnd, ok2 := s.execEnd[q]
	replySend, ok3 := s.replySend[q]
	if !ok1 || !ok2 || !ok3 {
		return bounds, nodes, false
	}
	// The proposal that led to execution: the last one sent before Q
	// started executing.
	var prop *Event
	for i := range s.propose {
		p := &s.propose[i]
		if p.T <= execStart && (prop == nil || p.T > prop.T) {
			prop = p
		}
	}
	if prop == nil {
		return bounds, nodes, false
	}
	// Its proposer's first sight of the request.
	var recv *Event
	for i := range s.recv {
		r := &s.recv[i]
		if r.Node == prop.Node && r.T <= prop.T && (recv == nil || r.T < recv.T) {
			recv = r
		}
	}
	if recv == nil {
		return bounds, nodes, false
	}
	bounds = [8]int64{s.invokeStart, s.clientSend, recv.T, prop.T, execStart, execEnd, replySend, s.invokeEnd}
	nodes = [7]uint32{0, recv.Node, prop.Node, q, q, q, 0}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return bounds, nodes, false
		}
	}
	return bounds, nodes, true
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
