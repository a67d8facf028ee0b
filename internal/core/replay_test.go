package core

import (
	"testing"

	"retail/internal/workload"
)

// The production path: capture a trace from live traffic, build a replay
// workload from it, and run the whole pipeline — feature selection must
// find the same features and ReTail must manage the replayed service
// within QoS at lower power than the default system.
func TestPipelineOnReplayedTrace(t *testing.T) {
	capture := &workload.Spec{Version: workload.SpecVersion, Name: "xapian-capture", Seed: 9,
		Cohorts: []workload.CohortSpec{{App: "xapian", Clients: 1, RPS: 1000,
			Arrival: workload.ArrivalSpec{Kind: workload.ArrivalPoisson}, Class: "standard"}}}
	app, err := workload.NewReplayApp("xapian-trace", workload.RecordTrace(capture, 9, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := testPlatform()
	cal, err := Calibrate(app, p, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := app.FeatureSpecs()
	found := false
	for _, j := range cal.Selection.Selected {
		if specs[j].Name == "doc_count" {
			found = true
		}
	}
	if !found {
		t.Fatalf("replay calibration missed doc_count: %v", cal.Selection.Selected)
	}

	rps := CalibrateMaxLoad(app, p, 3) * 0.6
	dur := RecommendedDuration(app, rps)
	rt, err := Run(RunConfig{App: app, Platform: p, Manager: cal.NewReTail(),
		RPS: rps, Warmup: dur / 5, Duration: dur, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := Run(RunConfig{App: app, Platform: p, Manager: cal.NewMaxFreq(),
		RPS: rps, Warmup: dur / 5, Duration: dur, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.QoSMet {
		t.Fatalf("ReTail on replay violated QoS: %v vs %v", rt.TailAtQoSPct, rt.QoSTarget)
	}
	if rt.AvgPowerW >= mx.AvgPowerW {
		t.Fatalf("no savings on replay: %v vs %v", rt.AvgPowerW, mx.AvgPowerW)
	}
}
