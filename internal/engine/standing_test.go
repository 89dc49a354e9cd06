package engine

import (
	"slices"
	"strings"
	"testing"
	"time"

	"hybster/internal/config"
	"hybster/internal/statemachine"
	"hybster/internal/timeline"
)

// TestStandingRecordsCommitsAndPublishesWithoutAllocating drives an
// unstarted Host as its loops would: Decide records the highest order
// whichever order the pillars decide in, so a gap below it reads as
// Committed far ahead of Executed (the exec-backlog signature); a
// pending view change reaches readers at the next publish, wanted at
// least as much as the desired view the protocol reports; and a
// publish that finds the loop's part unchanged allocates nothing.
func TestStandingRecordsCommitsAndPublishesWithoutAllocating(t *testing.T) {
	cfg := config.Default(config.HybsterS)
	cfg.ViewChangeTimeout = time.Hour
	vcs := map[timeline.View][]uint32{}
	var h *Host
	h, err := NewHost("test", Options{Config: cfg, Endpoint: &fakeEndpoint{}}, statemachine.NewExecutor(&logApp{}), Handlers{
		Coord: func(any) {},
		Standing: func(s *Standing) {
			s.Desired = h.View()
			s.VCHolders = append(s.VCHolders, vcs[h.Pending]...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []timeline.Order{3, 9, 5} {
		h.Decide(0, o, nil, false)
	}
	if s := h.Standing(); s.Committed != 9 || s.Executed != 0 || s.ExecQueue != 3 || s.Pending != 0 {
		t.Fatalf("after deciding 3, 9, 5 unexecuted: %+v", s)
	}

	vcs[2] = []uint32{2, 0}
	h.Pending = 2
	h.publish()
	s := h.Standing()
	if s.Pending != 2 || s.Desired != 2 || !slices.Equal(s.VCHolders, []uint32{0, 2}) {
		t.Fatalf("pending view change not published: %+v", s)
	}
	if !strings.HasSuffix(s.String(), " pending→2 desired=2 vcs[2]={r0 r2}") {
		t.Fatalf("standing reads %q", s)
	}
	if n := testing.AllocsPerRun(100, h.publish); n != 0 {
		t.Fatalf("an unchanged publish allocates %v times", n)
	}
}
