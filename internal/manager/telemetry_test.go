package manager

import (
	"testing"

	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// TestReTailInstrumented runs the Fig 14 drift loop with the telemetry
// substrate attached at both layers (manager control signals + server
// hooks chain) and checks that every exported instrument tracks the
// manager's own accounting.
func TestReTailInstrumented(t *testing.T) {
	app := varApp{base: 5e-3, slope: 0.5e-3, spread: 10, qos: workload.QoS{Latency: 40e-3, Percentile: 99}}
	rig := newRig(t, app, 2)
	cfg := rig.retailConfig()
	cfg.RetrainLatency = 20 * sim.Millisecond
	m := NewReTail(app.QoS(), cfg)
	m.SetDriftBaseline(0.005)

	reg := telemetry.NewRegistry()
	m.Instrument(reg, app.Name())
	m.Attach(rig.e, rig.srv)
	// Chain order: manager first (Attach replaces Hooks), then telemetry
	// wraps it.
	server.AttachTelemetry(rig.srv, reg, app.Name(), app.QoS())

	gen := workload.NewGenerator(app, 0.5*2/7.5e-3, 13, rig.srv.Submit)
	gen.Start(rig.e)
	rig.e.At(2, "interfere", func(en *sim.Engine) { rig.srv.SetInterference(en, 1.6) })
	rig.e.Run(8)
	gen.Stop()

	appLabel := telemetry.L("app", app.Name())
	if got := reg.Gauge(telemetry.MetricQoSPrime, "", appLabel).Value(); got != float64(m.QoSPrime()) {
		t.Fatalf("qos' gauge = %v, manager reports %v", got, float64(m.QoSPrime()))
	}
	if got := reg.Counter(telemetry.MetricDecisionsTotal, "", appLabel).Value(); got != uint64(m.Decisions()) {
		t.Fatalf("decisions counter = %d, manager reports %d", got, m.Decisions())
	}
	if got := reg.Counter(telemetry.MetricRetrainsTotal, "", appLabel).Value(); got != uint64(m.Retrains()) {
		t.Fatalf("retrains counter = %d, manager reports %d", got, m.Retrains())
	}
	if m.Retrains() == 0 {
		t.Fatal("interference did not trigger a retrain; drift path untested")
	}
	if got := reg.Counter(telemetry.MetricDriftTotal, "", appLabel).Value(); got < uint64(m.Retrains()) {
		t.Fatalf("drift events %d < retrains %d: every retrain needs a drift episode", got, m.Retrains())
	}
	if got := reg.Counter(telemetry.MetricRequestsTotal, "", appLabel).Value(); got != uint64(rig.srv.Completed()) {
		t.Fatalf("requests_total %d != server completed %d", got, rig.srv.Completed())
	}
	soj := reg.Histogram(telemetry.MetricSojournSeconds, "", appLabel)
	if soj.Count() == 0 {
		t.Fatal("sojourn histogram empty")
	}
}
