package experiments

import (
	"fmt"

	"retail/internal/colocate"
	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/trace"
	"retail/internal/workload"
)

// ---------------------------------------------------------------------------
// Fig 13 — PARTIES + ReTail synergy under colocation.

// Fig13Point samples node power and per-tenant tails at one instant.
type Fig13Point struct {
	At     sim.Time
	PowerW float64
	Tail   map[string]float64
}

// Fig13Result reproduces Fig 13: Moses and Silo colocated, an
// application-level allocation first (all cores at max — the PARTIES
// feasible point), then ReTail layered on both tenants at SwitchAt.
type Fig13Result struct {
	SwitchAt      sim.Time
	Points        []Fig13Point
	PowerBefore   float64 // average node power before the switch
	PowerAfter    float64 // average node power in the settled after-period
	SavingPercent float64
	QoSMet        map[string]bool
}

// Fig13 runs the colocation timeline.
func Fig13(cfg Config) (*Fig13Result, error) {
	platform := cfg.Platform
	half := platform.Workers / 2
	if half == 0 {
		half = 1
	}
	mkTenant := func(name string, workers int, seed int64) (*colocate.Tenant, error) {
		app := workload.ByName(name)
		cal, err := core.Calibrate(app, platform.WithWorkers(workers), cfg.SamplesPerLevel, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rps := core.CalibrateMaxLoad(app, platform.WithWorkers(workers), cfg.Seed) * 0.5
		return &colocate.Tenant{Cal: cal, Workers: workers, RPS: rps, Seed: seed}, nil
	}
	moses, err := mkTenant("moses", half, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	silo, err := mkTenant("silo", platform.Workers-half, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	node := colocate.NewNode([]*colocate.Tenant{moses, silo}, platform)

	e := sim.NewEngine()
	node.Start(e)
	const switchAt = 5.0
	const horizon = 15.0
	res := &Fig13Result{SwitchAt: switchAt, QoSMet: map[string]bool{}}

	e.At(1, "warm", func(en *sim.Engine) { node.ResetEnergy(en) })
	e.At(switchAt, "retail-on", func(en *sim.Engine) {
		if _, err := node.EnableReTail(en, 0); err != nil {
			panic(err)
		}
		if _, err := node.EnableReTail(en, 1); err != nil {
			panic(err)
		}
	})
	// Sample node power every 250 ms via windowed energy deltas.
	var lastEnergy float64
	var lastAt sim.Time = 1
	energyAt := func(now sim.Time) float64 {
		total := 0.0
		for _, t := range node.Tenants {
			total += t.Server.Socket.EnergyJoules(now)
		}
		return total + platform.Power.UncoreW*float64(now-1)
	}
	var sampleTimes []sim.Time
	for ts := sim.Time(1.25); ts <= horizon; ts += 0.25 {
		sampleTimes = append(sampleTimes, ts)
	}
	for _, ts := range sampleTimes {
		ts := ts
		e.At(ts, "sample", func(en *sim.Engine) {
			now := en.Now()
			eJ := energyAt(now)
			p := (eJ - lastEnergy) / float64(now-lastAt)
			lastEnergy, lastAt = eJ, now
			pt := Fig13Point{At: now, PowerW: p, Tail: map[string]float64{}}
			for _, t := range node.Tenants {
				if tail, ok := t.Lat.Percentile(t.Cal.App.QoS().Percentile); ok {
					pt.Tail[t.Cal.App.Name()] = tail
				}
			}
			res.Points = append(res.Points, pt)
		})
	}
	e.Run(horizon)
	for _, t := range node.Tenants {
		t.Gen.Stop()
	}

	// Aggregate before/after power from the samples (skip 2 s of settling
	// after the switch).
	var beforeSum, afterSum float64
	var beforeN, afterN int
	for _, p := range res.Points {
		switch {
		case p.At < switchAt:
			beforeSum += p.PowerW
			beforeN++
		case p.At > switchAt+2:
			afterSum += p.PowerW
			afterN++
		}
	}
	if beforeN > 0 {
		res.PowerBefore = beforeSum / float64(beforeN)
	}
	if afterN > 0 {
		res.PowerAfter = afterSum / float64(afterN)
	}
	if res.PowerBefore > 0 {
		res.SavingPercent = 1 - res.PowerAfter/res.PowerBefore
	}
	for _, t := range node.Tenants {
		tail, _ := t.Lat.Percentile(t.Cal.App.QoS().Percentile)
		res.QoSMet[t.Cal.App.Name()] = tail <= float64(t.Cal.App.QoS().Latency)
	}
	return res, nil
}

// Render prints the power timeline and the before/after summary.
func (r *Fig13Result) Render() string {
	t := &table{header: []string{"t", "node W"}}
	for i, p := range r.Points {
		if i%4 != 0 {
			continue
		}
		t.add(fmt.Sprintf("%.2fs", float64(p.At)), f2(p.PowerW))
	}
	return fmt.Sprintf(
		"Fig 13 — PARTIES→ReTail handoff at t=%.0fs: %.1fW → %.1fW (saving %s; QoS %v)\n%s",
		float64(r.SwitchAt), r.PowerBefore, r.PowerAfter, pct(r.SavingPercent), r.QoSMet, t.String())
}

// ---------------------------------------------------------------------------
// Fig 14 — model drift under batch-job interference, online retraining.

// Fig14Result reproduces Fig 14's three traces plus recovery metrics.
type Fig14Result struct {
	InterfereAt sim.Time
	Factor      float64

	TailTrace []manager.TracePoint // p99 over time
	RMSETrace []manager.TracePoint // RMSE/QoS over time
	FreqTrace []manager.TracePoint // mean core level over time
	Retrains  int
	// RecoverySeconds is the time from interference onset until the tail
	// stays back under QoS.
	RecoverySeconds float64
	ViolatedBefore  bool // sanity: no violation before onset
	QoSMetAfter     bool
	// Flight is the span flight recorder, populated when Config.Trace is
	// set (nil otherwise). Under interference its audit shifts violation
	// attribution toward misprediction until the retrain lands.
	Flight *trace.FlightRecorder
}

// Fig14 runs Moses at 20% load, injects interference at t=5 s, and traces
// the recovery loop: drift detection → retrain → tail back under QoS.
func Fig14(cfg Config) (*Fig14Result, error) {
	app := workload.ByName("moses")
	platform := cfg.Platform
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rps := core.CalibrateMaxLoad(app, platform, cfg.Seed) * 0.2
	rt := cal.NewReTail()
	rt.EnableTraces()

	const onset = 5.0
	const horizon = 15.0
	const factor = 1.5

	e := sim.NewEngine()
	srv := serverFor(platform, app, cfg.Seed)
	rt.Attach(e, srv)
	res := &Fig14Result{InterfereAt: onset, Factor: factor}
	if cfg.Trace {
		res.Flight = trace.NewFlightRecorder(trace.FlightRecorderConfig{QoS: app.QoS()})
		res.Flight.Attach(srv)
		rt.SetDecisionSink(res.Flight)
	}

	lat := newTimedTail(app.QoS().Percentile)
	srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
		lat.add(en.Now(), float64(r.Sojourn()))
	}
	gen := workload.NewGenerator(app, rps, cfg.Seed+5, srv.Submit)
	gen.Start(e)
	e.At(onset, "interfere", func(en *sim.Engine) {
		// The batch job takes half the cores' effective capacity via
		// shared-resource contention; modeled as a service-time inflation.
		srv.SetInterference(en, factor)
	})
	// Trace tail and frequency every 100 ms.
	for ts := sim.Time(0.5); ts <= horizon; ts += 0.1 {
		ts := ts
		e.At(ts, "trace", func(en *sim.Engine) {
			if tail, ok := lat.tail(en.Now(), 2.0); ok {
				res.TailTrace = append(res.TailTrace, manager.TracePoint{At: en.Now(), Value: tail})
			}
			res.FreqTrace = append(res.FreqTrace, manager.TracePoint{At: en.Now(), Value: colocate.MeanLevel(srv)})
		})
	}
	e.Run(horizon)
	gen.Stop()

	_, res.RMSETrace = rt.Traces()
	res.Retrains = rt.Retrains()
	qos := float64(app.QoS().Latency)
	// Find recovery: last trace point above QoS after onset.
	lastViolation := -1.0
	for _, p := range res.TailTrace {
		if p.At < onset && p.Value > qos {
			res.ViolatedBefore = true
		}
		if p.At >= onset && p.Value > qos {
			lastViolation = float64(p.At)
		}
	}
	if lastViolation < 0 {
		res.RecoverySeconds = 0
	} else {
		res.RecoverySeconds = lastViolation - onset
	}
	if len(res.TailTrace) > 0 {
		res.QoSMetAfter = res.TailTrace[len(res.TailTrace)-1].Value <= qos
	}
	return res, nil
}

// serverFor builds a bare server on the platform (Fig 14 manages the
// engine and manager wiring itself to interleave trace sampling).
func serverFor(p core.Platform, app workload.App, seed int64) *server.Server {
	return server.New(server.Config{
		App:     app,
		Workers: p.Workers,
		Grid:    p.Grid,
		Power:   p.Power,
		Trans:   p.Trans,
		Seed:    p.Seed ^ seed,
	})
}

// FlightRecorder returns the attached span recorder (nil when tracing is
// off), letting callers export without knowing the concrete result type.
func (r *Fig14Result) FlightRecorder() *trace.FlightRecorder { return r.Flight }

// Render prints the three Fig 14 traces side by side.
func (r *Fig14Result) Render() string {
	t := &table{header: []string{"t", "p-tail", "RMSE/QoS", "mean level"}}
	rmAt := func(at sim.Time) string {
		best := ""
		for _, p := range r.RMSETrace {
			if p.At <= at {
				best = f3(p.Value)
			}
		}
		return best
	}
	fqAt := func(at sim.Time) string {
		best := ""
		for _, p := range r.FreqTrace {
			if p.At <= at {
				best = f2(p.Value)
			}
		}
		return best
	}
	for i, p := range r.TailTrace {
		if i%10 != 0 {
			continue
		}
		t.add(fmt.Sprintf("%.1fs", float64(p.At)), dur(p.Value), rmAt(p.At), fqAt(p.At))
	}
	return fmt.Sprintf(
		"Fig 14 — interference at t=%.0fs (×%.1f): retrains=%d, recovery=%.1fs, settled QoS ok=%v\n%s",
		float64(r.InterfereAt), r.Factor, r.Retrains, r.RecoverySeconds, r.QoSMetAfter, t.String())
}

// timedTail keeps (time, sojourn) pairs for windowed tail queries.
type timedTail struct {
	pct  float64
	at   []sim.Time
	vals []float64
}

func newTimedTail(pct float64) *timedTail { return &timedTail{pct: pct} }

func (t *timedTail) add(at sim.Time, v float64) {
	t.at = append(t.at, at)
	t.vals = append(t.vals, v)
}

// tail returns the percentile, by the stats.Percentile rule, over the
// last span seconds; false while that window holds fewer than 10 samples.
func (t *timedTail) tail(now sim.Time, span float64) (float64, bool) {
	var window []float64
	for i := len(t.at) - 1; i >= 0; i-- {
		if float64(now-t.at[i]) > span {
			break
		}
		window = append(window, t.vals[i])
	}
	if len(window) < 10 {
		return 0, false
	}
	return stats.PercentileInPlace(window, t.pct), true
}
