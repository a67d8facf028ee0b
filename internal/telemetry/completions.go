package telemetry

import "strconv"

// Completions is the per-request metric set both runtimes register, one
// help text per family: the simulator through server.AttachTelemetry
// (virtual seconds), the wall-clock runtime through live.Server
// (wall-clock seconds).
type Completions struct {
	Completed  *Counter
	Dropped    *Counter
	Violations *Counter
	Sojourn    *Histogram
	Service    *Histogram
	Slack      *Histogram
	QueueDepth *Gauge
	Residency  []*Counter // indexed by served frequency level
	qos        float64    // QoS latency target, seconds
}

// NewCompletions registers the set in reg under labels, for a grid of
// levels frequency levels and a QoS target of qos seconds.
func NewCompletions(reg *Registry, levels int, qos float64, labels ...Label) *Completions {
	c := &Completions{
		Completed: reg.Counter(MetricRequestsTotal,
			"Requests completed.", labels...),
		Dropped: reg.Counter(MetricDroppedTotal,
			"Arrivals shed by admission control (load shedding).", labels...),
		Violations: reg.Counter(MetricViolationsTotal,
			"Completions whose sojourn exceeded the QoS target.", labels...),
		Sojourn: reg.Histogram(MetricSojournSeconds,
			"End-to-end request latency (t3-t1), the quantity QoS constrains.", labels...),
		Service: reg.Histogram(MetricServiceSeconds,
			"Request service time (end-start).", labels...),
		Slack: reg.Histogram(MetricSlackSeconds,
			"Latency headroom to the QoS target, clamped at zero.", labels...),
		QueueDepth: reg.Gauge(MetricQueueDepth,
			"Requests waiting (not running) across all workers.", labels...),
		qos: qos,
	}
	for lvl := 0; lvl < levels; lvl++ {
		lvlLabels := append(append([]Label{}, labels...), L("level", strconv.Itoa(lvl)))
		c.Residency = append(c.Residency, reg.Counter(MetricFreqResidency,
			"Completions per served frequency level.", lvlLabels...))
	}
	return c
}

// Observe records one completed request: its sojourn and service time in
// seconds and the frequency level it was served at.
func (c *Completions) Observe(sojourn, service float64, lvl int) {
	c.Completed.Inc()
	c.Sojourn.Observe(sojourn)
	c.Service.Observe(service)
	if slack := c.qos - sojourn; slack > 0 {
		c.Slack.Observe(slack)
	} else {
		c.Slack.Observe(0)
		c.Violations.Inc()
	}
	if lvl >= 0 && lvl < len(c.Residency) {
		c.Residency[lvl].Inc()
	}
}
