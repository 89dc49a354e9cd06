package engine

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/crypto"
	"hybster/internal/message"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
)

// suspectHarness is an unstarted Host of replica 0 in a group of three
// (f = 1) whose test plays its coordinator loop: events go through
// coord, the clock moves when the test says, and the protocol records
// the aborts and lagging peers the Host hands it.
type suspectHarness struct {
	*Host
	ep     *fakeEndpoint
	clock  atomic.Int64
	aborts []timeline.View
	lags   []uint32
}

func newSuspectHarness(t *testing.T) *suspectHarness {
	t.Helper()
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = time.Hour
	s := &suspectHarness{ep: &fakeEndpoint{}}
	base := time.Now()
	h, err := NewHost("test", Options{Config: cfg, Endpoint: s.ep,
		Now: func() time.Time { return base.Add(time.Duration(s.clock.Load())) }},
		statemachine.NewExecutor(&logApp{}), Handlers{
			Coord: func(any) {},
			Abort: func(to timeline.View) { s.aborts = append(s.aborts, to) },
			Lags:  func(peer uint32) { s.lags = append(s.lags, peer) },
		})
	if err != nil {
		t.Fatal(err)
	}
	s.Host = h
	return s
}

// suspected delivers peer r's SUSPECT of view v to the coordinator loop.
func (s *suspectHarness) suspected(r uint32, v timeline.View) {
	s.coord(InMsg{From: r, Msg: &message.Suspect{Replica: r, View: v}})
}

// suspicionsSent lists the views of the SUSPECTs sent to replica to.
func (s *suspectHarness) suspicionsSent(to uint32) []timeline.View {
	var out []timeline.View
	for _, m := range s.ep.sends() {
		if sus, ok := m.msg.(*message.Suspect); ok && m.to == to && sus.Replica == 0 {
			out = append(out, sus.View)
		}
	}
	return out
}

// TestSuspicionAbortsOnlyWithFPlusOne pins the one abort rule: a
// replica's own suspicion is multicast once and aborts nothing; a
// second replica's suspicion of the same view makes f+1 and hands the
// next view to the protocol's abort step; the standing names who
// suspects; the tick re-multicasts a standing suspicion only while
// execution stays stalled; and the install step clears every tally.
func TestSuspicionAbortsOnlyWithFPlusOne(t *testing.T) {
	s := newSuspectHarness(t)
	s.Suspect()
	s.Suspect()
	s.publish()
	if got := s.suspicionsSent(1); len(got) != 1 || got[0] != 0 || len(s.aborts) != 0 {
		t.Fatalf("a lone suspicion sent %v to r1 and aborted into %v; want one SUSPECT(0) and no abort", got, s.aborts)
	}
	if st := s.Standing(); !strings.HasSuffix(st.String(), "desired=0 sus[0]={r0}") {
		t.Fatalf("standing %q does not name the suspicion", st)
	}

	s.NoteWork()
	s.clock.Add(int64(2 * time.Hour))
	s.coord(Tick{})
	if got := s.suspicionsSent(2); len(got) != 2 {
		t.Fatalf("a stalled tick re-sent %d SUSPECTs to r2 in all, want 2", len(got))
	}
	s.NoteProgress(false)
	s.coord(Tick{})
	if got := s.suspicionsSent(2); len(got) != 2 {
		t.Fatalf("a tick after progress re-sent the suspicion (%d in all)", len(got))
	}

	s.suspected(2, 0)
	if len(s.aborts) != 1 || s.aborts[0] != 1 {
		t.Fatalf("r0 and r2 suspect view 0; aborts %v, want [1]", s.aborts)
	}
	if st := s.Standing(); !strings.HasSuffix(st.String(), "sus[0]={r0 r2}") {
		t.Fatalf("standing %q does not name both suspects", st)
	}

	// r1 suspects view 1 early; once view 1 installs, that tally is gone
	// and r2's suspicion of it is one.
	s.suspected(1, 1)
	ck := NewCheckpoints(s.Host, func(m *message.Checkpoint) (Announcement[*message.Checkpoint], error) {
		return Announcement[*message.Checkpoint]{}, nil
	}, nil)
	ck.EnterView(1, StableCkpt[*message.Checkpoint]{})
	s.suspected(2, 1)
	if len(s.aborts) != 1 {
		t.Fatalf("a suspicion recorded before the install counted after it: aborts %v", s.aborts)
	}
}

// TestStaleSuspicionIsAnswered pins the two answers that keep a
// straggler live: a peer suspecting a view below the installed one is
// handed to the protocol to relay its NEW-VIEW, and a peer suspecting a
// view this replica has already aborted is told that it suspects that
// view too.
func TestStaleSuspicionIsAnswered(t *testing.T) {
	s := newSuspectHarness(t)
	s.curView.Store(3)
	s.suspected(1, 2)
	if len(s.lags) != 1 || s.lags[0] != 1 || len(s.aborts) != 0 {
		t.Fatalf("SUSPECT(2) in view 3: lagging peers %v, aborts %v; want [1] and none", s.lags, s.aborts)
	}

	s.Pending = 5
	s.suspected(2, 4)
	if got := s.suspicionsSent(2); len(got) != 1 || got[0] != 4 {
		t.Fatalf("pending at 5, SUSPECT(4) from r2 was answered with %v, want [4]", got)
	}
	if got := s.suspicionsSent(1); len(got) != 0 {
		t.Fatalf("the answer went to r1 too: %v", got)
	}
}

// TestBehindReplicaDoesNotSuspect pins that a replica whose execution is
// behind both the stable checkpoint and its own decisions waits for a
// state transfer and does not suspect its view, unless a peer already
// suspects it (a crashed leader, seen by a replica that is not behind);
// and that one behind the stable checkpoint without deciding anything
// beyond its execution (a replica left in an older view) suspects.
func TestBehindReplicaDoesNotSuspect(t *testing.T) {
	s := newSuspectHarness(t)
	s.standing.Store(&Standing{Stable: 8})
	s.Decide(0, 9, nil, false)
	s.Suspect()
	if got := s.suspicionsSent(1); len(got) != 0 {
		t.Fatalf("a replica that decided 9 and executed nothing, behind stable 8, suspected: %v", got)
	}
	s.suspected(2, 0)
	s.Suspect()
	if got := s.suspicionsSent(1); len(got) != 1 || len(s.aborts) != 1 {
		t.Fatalf("with r2's suspicion held, the waiting replica sent %v and aborted into %v; want one SUSPECT and an abort", got, s.aborts)
	}

	s = newSuspectHarness(t)
	s.standing.Store(&Standing{Stable: 8})
	s.Suspect()
	if got := s.suspicionsSent(1); len(got) != 1 {
		t.Fatalf("a replica behind stable 8 that decided nothing sent %v, want one SUSPECT", got)
	}
}

// TestOnlyReplicasSuspect pins that the inbound path takes a SUSPECT
// only from a replica, under that replica's own key. Clients share
// pairwise keys with the replicas, so a client's SUSPECT verifies; it
// must still be neither recorded, nor answered, nor counted toward the
// f+1 — else two clients could take a group of three out of any view.
func TestOnlyReplicasSuspect(t *testing.T) {
	s := newSuspectHarness(t)
	master := crypto.NewKeyFromSeed(s.Cfg.KeySeed)
	// arrive routes a SUSPECT of v from replica r, authenticated by
	// node signer and sent on node from's link, and runs the coordinator
	// loop on whatever the route delivered.
	arrive := func(from, r, signer uint32, v timeline.View) {
		sus := &message.Suspect{Replica: r, View: v}
		sus.Auth = crypto.NewAuthenticator(crypto.NewKeyStore(signer, master), sus.Digest(), s.Cfg.N)
		s.route(from, sus)
		for ev, ok := s.CoordBox.TryGet(); ok; ev, ok = s.CoordBox.TryGet() {
			s.coord(ev)
		}
	}
	c := uint32(crypto.ClientIDBase)

	s.Suspect()
	arrive(c, c, c, 0)
	arrive(c+1, c+1, c+1, 0)
	arrive(c, c, c, 9)
	arrive(1, 1, c, 0) // a client claiming replica 1's link
	s.publish()
	if len(s.aborts) != 0 || len(s.suspects) != 1 {
		t.Fatalf("clients' suspicions aborted into %v and left tallies for %d views; want none and 1", s.aborts, len(s.suspects))
	}
	if st := s.Standing(); !strings.HasSuffix(st.String(), "sus[0]={r0}") {
		t.Fatalf("standing %q counts a client's suspicion", st)
	}
	arrive(2, 2, 2, 0)
	if len(s.aborts) != 1 || s.aborts[0] != 1 {
		t.Fatalf("r0 and r2 suspect view 0; aborts %v, want [1]", s.aborts)
	}

	s.curView.Store(3)
	s.Pending = 5
	arrive(c, c, c, 1)
	arrive(c, c, c, 4)
	if len(s.lags) != 0 || len(s.suspicionsSent(c)) != 0 {
		t.Fatalf("a client's stale suspicions were answered: lagging peers %v, SUSPECTs sent %v", s.lags, s.suspicionsSent(c))
	}
	arrive(1, 1, 1, 1)
	if len(s.lags) != 1 || s.lags[0] != 1 {
		t.Fatalf("r1's SUSPECT(1) in view 3: lagging peers %v, want [1]", s.lags)
	}
}
