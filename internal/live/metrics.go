package live

import (
	"retail/internal/cpu"
	"retail/internal/telemetry"
)

// liveMetrics holds the wall-clock runtime's instrument handles: the
// completion set the simulator registers too (same families, same help
// text), so a scrape of retail-live looks exactly like a scrape of a
// simulated run — just with wall-clock seconds in the histograms. With
// metrics off every handle is nil and each update is a no-op.
type liveMetrics struct {
	telemetry.Completions
	qosPrime  *telemetry.Gauge
	decisions *telemetry.Counter

	// Graceful-degradation instruments.
	deadlineDrops *telemetry.Counter
	dvfsRetries   *telemetry.Counter
	dvfsFallbacks *telemetry.Counter
	dvfsErrors    *telemetry.Counter
	pinned        *telemetry.Gauge
}

// newLiveMetrics registers the runtime's instruments under app.
func newLiveMetrics(reg *telemetry.Registry, app string, grid *cpu.Grid, qosSeconds float64) liveMetrics {
	appLabel := telemetry.L("app", app)
	return liveMetrics{
		Completions: *telemetry.NewCompletions(reg, grid.Levels(), qosSeconds, appLabel),
		qosPrime: reg.Gauge(telemetry.MetricQoSPrime,
			"Internal latency target QoS' steered by the latency monitor.", appLabel),
		decisions: reg.Counter(telemetry.MetricDecisionsTotal,
			"Algorithm 1 frequency decisions.", appLabel),
		deadlineDrops: reg.Counter(telemetry.MetricDeadlineTimeouts,
			"Queued requests dropped at dequeue: waiting time alone exceeded the deadline budget.", appLabel),
		dvfsRetries: reg.Counter(telemetry.MetricDVFSRetries,
			"DVFS write retries after a failure.", appLabel),
		dvfsFallbacks: reg.Counter(telemetry.MetricDVFSFallbacks,
			"DVFS retry budgets exhausted; worker pinned at max frequency.", appLabel),
		dvfsErrors: reg.Counter(telemetry.MetricDVFSWriteErrors,
			"Failed DVFS write attempts, including failed retries.", appLabel),
		pinned: reg.Gauge(telemetry.MetricWorkersPinned,
			"Workers currently pinned at max frequency by the DVFS fallback.", appLabel),
	}
}
