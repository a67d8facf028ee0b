package workload

import (
	"fmt"

	"retail/internal/sim"
)

// Source is where a simulated run's requests come from: the Poisson
// client at RPS, a cohort Spec, or a recorded Replay trace, optionally
// tapped into Record. Its Open owns the selection rules every simulated
// runtime (core.Run, cluster.RunFleet) applies.
type Source struct {
	// RPS is the Poisson client's rate; with a Spec, RPS > 0 rescales
	// the spec's aggregate rate (0 runs the spec's own rates).
	RPS float64
	// Spec drives the run with a cohort population.
	Spec *Spec
	// Replay substitutes a recorded stream: arrivals, features and
	// service demands come from the trace bit-for-bit and no workload RNG
	// is consumed. Mutually exclusive with Spec.
	Replay *Trace
	// Record, when non-nil, taps every arrival (warmup included) into the
	// trace on its way to the sink, so a replay reproduces the whole run.
	Record *Trace
}

// Stream is an opened Source: the offered rate and SLO class table a run
// reports and installs, and the arrivals Start begins.
type Stream struct {
	// RPS is the effective offered rate: the rescaled spec's total, or
	// records/horizon for a replay.
	RPS float64
	// Classes and Scales are the source's class table (nil for the
	// Poisson client), indexed by Request.SLOClass.
	Classes []string
	Scales  []float64

	src  Source
	app  App
	seed int64
}

// Open checks the source against the run's app and horizon
// (warmup+duration) and resolves its rate and class table. A Spec or
// Replay must name exactly one app, and it must be app.
func (s Source) Open(app App, seed int64, horizon sim.Duration) (*Stream, error) {
	st := &Stream{RPS: s.RPS, src: s, app: app, seed: seed}
	var single func() (App, error)
	switch {
	case s.Spec != nil && s.Replay != nil:
		return nil, fmt.Errorf("workload: Spec and Replay are mutually exclusive")
	case s.Replay != nil:
		single = s.Replay.SingleApp
		st.RPS = float64(len(s.Replay.Records)) / float64(horizon)
		st.Classes, st.Scales = s.Replay.Header.Classes, s.Replay.Header.Scales
	case s.Spec != nil:
		single = s.Spec.SingleApp
		if s.RPS > 0 {
			st.src.Spec = s.Spec.ScaledTo(s.RPS)
		}
		st.RPS = st.src.Spec.TotalRPS()
		st.Classes, st.Scales = st.src.Spec.Classes()
	case s.RPS <= 0:
		return nil, fmt.Errorf("workload: a run needs positive RPS, a Spec or a Replay")
	default:
		return st, nil
	}
	named, err := single()
	if err != nil {
		return nil, err
	}
	if named.Name() != app.Name() {
		return nil, fmt.Errorf("workload: source targets app %q, run serves %q", named.Name(), app.Name())
	}
	return st, nil
}

// Start begins arrivals into sink (through Record when set), recycling
// request nodes through pool when it is non-nil, and returns the
// function that stops them.
func (st *Stream) Start(e *sim.Engine, sink func(*sim.Engine, *Request), pool *RequestPool) (stop func()) {
	if st.src.Record != nil {
		sink = st.src.Record.RecordSink(sink)
	}
	if st.src.Replay != nil {
		p := NewPlayer(st.src.Replay, sink)
		p.Pool = pool
		p.Start(e)
		return p.Stop
	}
	var g *Generator
	if st.src.Spec != nil {
		g = NewCohortGenerator(st.src.Spec, st.seed, sink)
	} else {
		g = NewGenerator(st.app, st.src.RPS, st.seed, sink)
	}
	g.Pool = pool
	g.Start(e)
	return g.Stop
}
