package workload

import (
	"testing"

	"retail/internal/sim"
)

// TestSourceOpen pins the request-source rules both simulated runtimes
// share: what is rejected, and the rate and class table each source
// resolves to.
func TestSourceOpen(t *testing.T) {
	moses := NewMoses()
	spec := BuiltinSpec("slo-mix")
	tr := recordMoses(400, 0.6)
	empty := *tr
	empty.Records = nil
	unknownApp := BuiltinSpec("steady-poisson")
	unknownApp.Cohorts[0].App = "no-such-app"

	for _, c := range []struct {
		name string
		src  Source
		app  App
	}{
		{"spec and replay", Source{Spec: spec, Replay: tr}, moses},
		{"no source", Source{}, moses},
		{"negative rate", Source{RPS: -1}, moses},
		{"spec for another app", Source{Spec: spec}, NewXapian()},
		{"replay for another app", Source{Replay: tr}, NewXapian()},
		{"empty replay", Source{Replay: &empty}, moses},
		{"spec of an unknown app", Source{Spec: unknownApp}, moses},
	} {
		if _, err := c.src.Open(c.app, 1, 1); err == nil {
			t.Errorf("%s: opened", c.name)
		}
	}

	st, err := Source{RPS: 250}.Open(moses, 1, 1)
	if err != nil || st.RPS != 250 || st.Classes != nil {
		t.Fatalf("poisson: %+v, %v", st, err)
	}
	st, err = Source{Spec: spec}.Open(moses, 1, 1)
	if err != nil || st.RPS != spec.TotalRPS() || len(st.Classes) != 3 || len(st.Scales) != 3 {
		t.Fatalf("spec: %+v, %v", st, err)
	}
	st, err = Source{RPS: 700, Spec: spec}.Open(moses, 1, 1)
	if err != nil || st.RPS != 700 || spec.TotalRPS() == 700 {
		t.Fatalf("rescaled spec: %+v, %v", st, err)
	}
	const horizon = sim.Duration(0.5)
	st, err = Source{RPS: 9999, Replay: tr}.Open(moses, 1, horizon)
	if want := float64(len(tr.Records)) / float64(horizon); err != nil || st.RPS != want {
		t.Fatalf("replay: %+v, %v; want rate %v", st, err, want)
	}
}

// TestStreamStartRecordsAndPools: Start taps Record before the sink and
// draws request nodes from the pool it is given.
func TestStreamStartRecordsAndPools(t *testing.T) {
	rec := NewTrace(BuiltinSpec("steady-poisson"), 1)
	st, err := Source{RPS: 500, Record: rec}.Open(NewMoses(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := &RequestPool{}
	recycled := &Request{}
	pool.Put(recycled)
	e := sim.NewEngine()
	var got []*Request
	stop := st.Start(e, func(_ *sim.Engine, r *Request) { got = append(got, r) }, pool)
	e.Run(0.2)
	stop()
	if len(got) == 0 || len(got) != len(rec.Records) {
		t.Fatalf("%d arrivals, %d recorded", len(got), len(rec.Records))
	}
	if got[0] != recycled {
		t.Fatal("first arrival did not reuse the pooled node")
	}
}
