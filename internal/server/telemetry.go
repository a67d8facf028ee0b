package server

import (
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// TelemetryHooks is a Hooks-chain adapter: it forwards every callback to
// the wrapped Hooks (normally the power manager installed by Attach) and
// records per-request telemetry into a Registry. It is virtual-time
// aware — durations come from the request's sim timestamps, not the wall
// clock — so a simulated run exposes the same metric families a live
// deployment does.
//
// It records the telemetry.Completions set, labeled app=<name>.
type TelemetryHooks struct {
	inner Hooks
	srv   *Server
	m     *telemetry.Completions
}

// AttachTelemetry wraps the server's current Hooks (install the power
// manager first) with a TelemetryHooks recording into reg under the
// given app label plus any extra labels — the cluster layer keys one
// server's metrics per node (node=…, and per sweep cell dispatcher=…/
// policy=…) while staying inside the same metric families a single-node
// run exposes.
func AttachTelemetry(s *Server, reg *telemetry.Registry, app string, qos workload.QoS, extra ...telemetry.Label) *TelemetryHooks {
	labels := append([]telemetry.Label{telemetry.L("app", app)}, extra...)
	th := &TelemetryHooks{
		inner: s.Hooks,
		srv:   s,
		m:     telemetry.NewCompletions(reg, s.Socket.Cores[0].Grid().Levels(), float64(qos.Latency), labels...),
	}
	s.Hooks = th
	return th
}

// Inner returns the wrapped Hooks (the power manager).
func (t *TelemetryHooks) Inner() Hooks { return t.inner }

// Arrival implements Hooks: forwards to the manager and counts drops.
func (t *TelemetryHooks) Arrival(e *sim.Engine, w *Worker, r *workload.Request) bool {
	ok := t.inner.Arrival(e, w, r)
	if !ok {
		t.m.Dropped.Inc()
		return false
	}
	// The request is admitted but not yet appended to the queue; +1
	// reflects it. Idle-worker arrivals start immediately and the Start
	// hook corrects the gauge in the same virtual instant.
	t.m.QueueDepth.Set(float64(t.srv.QueuedTotal() + 1))
	return true
}

// Ready implements Hooks.
func (t *TelemetryHooks) Ready(e *sim.Engine, w *Worker, r *workload.Request) {
	t.inner.Ready(e, w, r)
}

// Start implements Hooks.
func (t *TelemetryHooks) Start(e *sim.Engine, w *Worker, r *workload.Request) {
	t.inner.Start(e, w, r)
	t.m.QueueDepth.Set(float64(t.srv.QueuedTotal()))
}

// Complete implements Hooks: records the per-request histograms and the
// frequency-residency counter, then forwards.
func (t *TelemetryHooks) Complete(e *sim.Engine, w *Worker, r *workload.Request) {
	t.m.Observe(float64(r.Sojourn()), float64(r.ServiceTime()), r.ServedLevel)
	t.m.QueueDepth.Set(float64(t.srv.QueuedTotal()))
	t.inner.Complete(e, w, r)
}
