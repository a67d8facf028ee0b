package workload

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"retail/internal/sim"
	"retail/internal/stats"
)

// recordMoses records the builtin steady-poisson population (moses)
// scaled to rps over horizon seconds.
func recordMoses(rps float64, horizon sim.Duration) *Trace {
	return RecordTrace(BuiltinSpec("steady-poisson").ScaledTo(rps), 1, horizon)
}

// TestReadTraceRejectsBadRecords: a record whose feature count differs
// from its app's, whose arrival is non-finite, negative or out of order,
// whose service demand is non-finite or not positive, or whose compute
// fraction leaves [0,1] must fail the decode — replaying it would index
// past the feature vector or corrupt the event order.
func TestReadTraceRejectsBadRecords(t *testing.T) {
	base := recordMoses(400, 0.5)
	if len(base.Records) < 10 {
		t.Fatalf("recording too short: %d records", len(base.Records))
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(recs []TraceRecord)
	}{
		{"no features", func(r []TraceRecord) {
			for i := range r {
				r[i].Features = nil
			}
		}},
		{"extra feature", func(r []TraceRecord) { r[3].Features = append(append([]float64(nil), r[3].Features...), 1) }},
		{"NaN arrival", func(r []TraceRecord) { r[3].Arrival = sim.Time(nan) }},
		{"infinite arrival", func(r []TraceRecord) { r[len(r)-1].Arrival = sim.Time(inf) }},
		{"negative arrival", func(r []TraceRecord) { r[0].Arrival = -1e-3 }},
		{"arrival before previous", func(r []TraceRecord) { r[3].Arrival = r[2].Arrival / 2 }},
		{"zero service", func(r []TraceRecord) { r[3].ServiceBase = 0 }},
		{"negative service", func(r []TraceRecord) { r[3].ServiceBase = -1e-3 }},
		{"NaN service", func(r []TraceRecord) { r[3].ServiceBase = sim.Duration(nan) }},
		{"infinite service", func(r []TraceRecord) { r[3].ServiceBase = sim.Duration(inf) }},
		{"negative compute fraction", func(r []TraceRecord) { r[3].ComputeFrac = -0.1 }},
		{"compute fraction above 1", func(r []TraceRecord) { r[3].ComputeFrac = 1.5 }},
		{"NaN compute fraction", func(r []TraceRecord) { r[3].ComputeFrac = nan }},
	}
	decode := func(tr *Trace) error {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadTrace(&buf)
		return err
	}
	if err := decode(base); err != nil {
		t.Fatalf("valid recording rejected: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *base
			bad.Records = append([]TraceRecord(nil), base.Records...)
			c.mutate(bad.Records)
			if err := decode(&bad); err == nil {
				t.Fatal("decoded without error")
			}
		})
	}
	// Apps this build does not know have no feature width to check.
	custom := *base
	custom.Header.Apps = []string{"custom"}
	custom.Records = append([]TraceRecord(nil), base.Records...)
	custom.Records[3].Features = nil
	if err := decode(&custom); err != nil {
		t.Fatalf("unknown-app trace rejected: %v", err)
	}
}

func TestTraceWindow(t *testing.T) {
	tr := recordMoses(400, 1.2)
	warmup, dur := tr.Window()
	span := sim.Duration(tr.Records[len(tr.Records)-1].Arrival)
	if warmup != span/6 || dur != span-span/6 {
		t.Fatalf("Window = %v, %v for span %v", warmup, dur, span)
	}
	if w, d := (&Trace{}).Window(); w != 0 || d != 0 {
		t.Fatalf("empty trace Window = %v, %v", w, d)
	}
}

func TestReplayAppValidation(t *testing.T) {
	tr := recordMoses(400, 0.5)
	empty := *tr
	empty.Records = nil
	if _, err := NewReplayApp("r", &empty); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := map[string]func(*TraceRecord){
		"feature width":    func(r *TraceRecord) { r.Features = r.Features[:1] },
		"negative service": func(r *TraceRecord) { r.ServiceBase = -1 },
		"compute fraction": func(r *TraceRecord) { r.ComputeFrac = 2 },
	}
	for name, mutate := range bad {
		b := *tr
		b.Records = append([]TraceRecord(nil), tr.Records...)
		mutate(&b.Records[1])
		if _, err := NewReplayApp("r", &b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	app, err := NewReplayApp("r", tr)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMoses()
	if app.Name() != "r" || app.Len() != len(tr.Records) || len(app.FeatureSpecs()) != len(src.FeatureSpecs()) || app.QoS() != src.QoS() {
		t.Fatal("accessors broken")
	}
}

func TestReplayPreservesDistribution(t *testing.T) {
	tr := recordMoses(1000, 4)
	app, err := NewReplayApp("moses-replay", tr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var orig, rep []float64
	for _, r := range tr.Records {
		orig = append(orig, float64(r.ServiceBase))
	}
	for range orig {
		r := app.Generate(rng)
		rep = append(rep, float64(r.ServiceBase))
		if r.ComputeFrac != tr.Records[0].ComputeFrac {
			t.Fatalf("compute fraction %v, recorded %v", r.ComputeFrac, tr.Records[0].ComputeFrac)
		}
	}
	for _, p := range []float64{50, 90, 99} {
		a, b := stats.Percentile(orig, p), stats.Percentile(rep, p)
		if b < a*0.9 || b > a*1.1 {
			t.Fatalf("p%v: trace %v vs replay %v", p, a, b)
		}
	}
	// Feature→latency correlation survives the round trip.
	idx := FeatureIndex(NewMoses(), "word_count")
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		r := app.Generate(rng)
		xs = append(xs, r.Features[idx])
		ys = append(ys, float64(r.ServiceBase))
	}
	if rho, _ := stats.Pearson(xs, ys); rho < 0.95 {
		t.Fatalf("replay correlation ρ = %v", rho)
	}
}

func TestReplayGenerateCopiesFeatures(t *testing.T) {
	tr := recordMoses(400, 0.1)
	tr.Records = tr.Records[:1]
	want := tr.Records[0].Features[0]
	app, err := NewReplayApp("r", tr)
	if err != nil {
		t.Fatal(err)
	}
	r := app.Generate(rand.New(rand.NewSource(1)))
	r.Features[0] = want + 99
	if tr.Records[0].Features[0] != want {
		t.Fatal("Generate aliased trace storage")
	}
}
