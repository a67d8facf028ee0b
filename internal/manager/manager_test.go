package manager

import (
	"math/rand"
	"testing"

	"retail/internal/cpu"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// varApp is a controllable workload whose service time is exactly
// base + slope·x for feature x ∈ [0, spread), fully compute-bound by
// default so frequency math is exact.
type varApp struct {
	base, slope float64 // seconds
	spread      int
	cf          float64
	qos         workload.QoS
	lateness    float64
}

func (a varApp) Name() string      { return "var" }
func (a varApp) QoS() workload.QoS { return a.qos }
func (a varApp) FeatureSpecs() []workload.FeatureSpec {
	return []workload.FeatureSpec{{Name: "x", Kind: workload.Numerical, Lateness: a.lateness}}
}
func (a varApp) Generate(rng *rand.Rand) *workload.Request {
	x := float64(rng.Intn(a.spread))
	cf := a.cf
	if cf == 0 {
		cf = 1
	}
	return &workload.Request{
		App:         a.Name(),
		Features:    []float64{x},
		ServiceBase: sim.Duration(a.base + a.slope*x),
		ComputeFrac: cf,
	}
}

// testRig wires an engine, server and calibrated linear model for a
// varApp.
type testRig struct {
	e    *sim.Engine
	srv  *server.Server
	app  varApp
	grid *cpu.Grid
	set  *predict.TrainingSet
	mdl  *predict.LinearModel
}

func newRig(t testing.TB, app varApp, workers int) *testRig {
	t.Helper()
	g := cpu.DefaultGrid()
	srv := server.New(server.Config{
		App: app, Workers: workers, Grid: g,
		Power: cpu.DefaultPowerModel(g),
		Trans: cpu.TransitionModel{Min: 1e-6, Mean: 2e-6, Max: 5e-6},
		Seed:  1,
	})
	// Calibrate a linear model from exact per-level samples.
	rng := rand.New(rand.NewSource(9))
	set := predict.NewTrainingSet(300)
	for lvl := cpu.Level(0); int(lvl) < g.Levels(); lvl++ {
		for i := 0; i < 300; i++ {
			r := app.Generate(rng)
			set.Add(predict.Sample{
				Level: lvl, Features: r.Features,
				Service: float64(r.ServiceAt(g.Freq(lvl), g.MaxFreq(), 1)),
			})
		}
	}
	layout := predict.FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{0}}
	mdl, err := predict.FitLinear(set, layout, g.Levels())
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{e: sim.NewEngine(), srv: srv, app: app, grid: g, set: set, mdl: mdl}
}

func (r *testRig) retailConfig() ReTailConfig {
	cfg := DefaultReTailConfig()
	cfg.Layout = predict.FeatureLayout{Specs: r.app.FeatureSpecs(), Selected: []int{0}}
	cfg.Model = r.mdl
	cfg.Training = r.set
	return cfg
}

// submit injects a request with feature x at the current time.
func (r *testRig) submit(x float64) *workload.Request {
	req := &workload.Request{
		App:         r.app.Name(),
		Features:    []float64{x},
		ServiceBase: sim.Duration(r.app.base + r.app.slope*x),
		ComputeFrac: 1,
		Gen:         r.e.Now(),
	}
	r.srv.Submit(r.e, req)
	return req
}

func TestObservableFeatures(t *testing.T) {
	specs := []workload.FeatureSpec{
		{Name: "req", Kind: workload.Numerical, Lateness: 0},
		{Name: "app", Kind: workload.Numerical, Lateness: 0.1},
	}
	r := &workload.Request{Features: []float64{3, 7}}
	// Not ready: application feature hidden.
	got := ObservableFeatures(specs, r, false, false)
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("not-ready features = %v", got)
	}
	// Ready: everything visible.
	got = ObservableFeatures(specs, r, true, false)
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("ready features = %v", got)
	}
	// Request-only managers never see application features.
	got = ObservableFeatures(specs, r, true, true)
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("request-only features = %v", got)
	}
	// The input is never mutated.
	if r.Features[1] != 7 {
		t.Fatal("ObservableFeatures mutated the request")
	}
}

// TestReadiness pins ReTail's readiness bookkeeping, which lives in the
// request's memo slot: a fresh request is unready (its late features read
// as zero), Ready marks it and rebuilds the features, and Complete returns
// the slot so the request starts unready again. A request that turns
// ready before any decision predicted it carries the bit into the slot
// it gets later.
func TestReadiness(t *testing.T) {
	app := varApp{base: 5e-3, slope: 1e-3, spread: 10, lateness: 0.5, qos: workload.QoS{Latency: 60e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	w := rig.srv.Workers()[0]
	r := &workload.Request{ID: 42, Features: []float64{7}, ServiceBase: 10e-3, ComputeFrac: 1}
	if ent := m.entryFor(r); ent.ready || ent.feats[0] != 0 {
		t.Fatalf("fresh request: ready=%v features=%v", ent.ready, ent.feats)
	}
	m.Ready(rig.e, w, r) // idle worker: marks readiness, decides nothing
	if ent := m.entryFor(r); !ent.ready || ent.feats[0] != 7 {
		t.Fatalf("after Ready: ready=%v features=%v", ent.ready, ent.feats)
	}
	m.Complete(rig.e, w, r)
	if r.MemoSlot != 0 {
		t.Fatalf("Complete left slot %d on the request", r.MemoSlot)
	}
	if m.entryFor(r).ready {
		t.Fatal("completed request still ready")
	}
	early := &workload.Request{ID: 43, Features: []float64{8}, ServiceBase: 10e-3, ComputeFrac: 1}
	m.Ready(rig.e, w, early)
	if ent := m.entryFor(early); !ent.ready || ent.feats[0] != 8 {
		t.Fatalf("ready before its first prediction: ready=%v features=%v", ent.ready, ent.feats)
	}
}
