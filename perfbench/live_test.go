package main

import (
	"testing"
	"time"

	"retail/internal/core"
	"retail/internal/workload"
)

// TestLiveVolley drives a small open-loop volley through a traced live
// server twice: every request must be answered exactly once with ordered
// stamps, the second volley must not see the first one's answers, and
// the wrapped predictor and backend must record their calls.
func TestLiveVolley(t *testing.T) {
	app := workload.NewXapian()
	cal, err := core.Calibrate(app, core.DefaultPlatform().WithWorkers(2), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	s, err := startLive(cal, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	sched, err := ladderTrace(5000, 200*time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		v, err := s.gen.Fire(sched, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		o := tally(v, app.QoS(), s.grid.Levels())
		if o.Attempted != len(sched.Records) || o.Completed != o.Attempted || o.Failed() != 0 {
			t.Fatalf("round %d: %+v", round, o)
		}
		for i := range v.Shots {
			if sh := &v.Shots[i]; sh.SentNs < sh.DueNs-int64(time.Millisecond) || sh.RecvNs < sh.SentNs {
				t.Fatalf("round %d shot %d: due %d sent %d received %d", round, i, sh.DueNs, sh.SentNs, sh.RecvNs)
			}
		}
	}
	if s.gen.Late != 0 {
		t.Errorf("%d late answers", s.gen.Late)
	}
	if s.pred.calls.Load() == 0 || s.backend.writes.Load() == 0 {
		t.Errorf("wrappers saw %d predictions and %d backend calls", s.pred.calls.Load(), s.backend.writes.Load())
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) == 0 {
		t.Error("no spans recorded")
	}
}
