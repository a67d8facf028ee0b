// Replay parity: the proof that the live server runs the simulator's
// decision code.
//
// The harness records everything the shared decision core consumed
// during one simulated ReTail run — Algorithm 1 inputs, completions,
// monitor ticks, in event order — then replays the trace through the
// live runtime's decider (live.ReplayDecisions) with the same frozen
// predictor and monitor constants. If the two adapters feed the core
// identical inputs in identical order, the decision sequences must be
// byte-identical; any divergence means one runtime grew private policy
// logic again.
package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/manager"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// ParityConfig parameterizes a parity run. The zero value selects the
// standard check: Moses (every feature known at arrival, so the trace's
// static feature vectors are exact), four workers, five simulated
// seconds at moderate load.
type ParityConfig struct {
	Workers  int     // default 4
	RPS      float64 // default 150
	Duration float64 // simulated seconds, default 5
	Seed     int64   // workload seed, default 42
}

// ParityResult carries both runtimes' decision sequences plus their
// canonical encodings, and the recorded trace with the replay inputs so
// tests can re-replay under perturbed conditions (the negative control:
// a deliberately wrong constant must break parity).
type ParityResult struct {
	Sim    []policy.ReplayDecision // from the simulator adapter's sink
	Replay []policy.ReplayDecision // from the live adapter's decider
	Ticks  int                     // monitor ticks recorded in the trace

	SimBytes    []byte
	ReplayBytes []byte

	Trace   *policy.Trace
	Model   *predict.LinearModel
	Grid    *cpu.Grid
	Monitor policy.MonitorConfig
}

// Match reports whether the two decision streams are byte-identical.
func (r *ParityResult) Match() bool { return bytes.Equal(r.SimBytes, r.ReplayBytes) }

// FirstDivergence returns the index of the first differing decision and
// both sides' values, for diagnostics. ok is false when the streams match.
func (r *ParityResult) FirstDivergence() (i int, simD, repD policy.ReplayDecision, ok bool) {
	n := len(r.Sim)
	if len(r.Replay) < n {
		n = len(r.Replay)
	}
	for i = 0; i < n; i++ {
		if r.Sim[i] != r.Replay[i] {
			return i, r.Sim[i], r.Replay[i], true
		}
	}
	if len(r.Sim) != len(r.Replay) {
		return n, policy.ReplayDecision{}, policy.ReplayDecision{}, true
	}
	return 0, policy.ReplayDecision{}, policy.ReplayDecision{}, false
}

// EncodeDecisions serializes a decision sequence canonically: for every
// decision, the chosen level as a little-endian uint32 followed by the
// raw IEEE-754 bits of QoS′. Bit-exact floats are the parity criterion,
// so the encoding must not round-trip through text.
func EncodeDecisions(ds []policy.ReplayDecision) []byte {
	buf := make([]byte, 0, 12*len(ds))
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint32(b[:4], uint32(d.Level))
		buf = append(buf, b[:4]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(d.QoSPrime)))
		buf = append(buf, b[:8]...)
	}
	return buf
}

// EncodeClassedDecisions extends EncodeDecisions with each decision's
// SLO class byte — the multi-class parity encoding. The per-class QoS′
// already rides in the QoSPrime bits (both adapters record the scaled
// budget), so this hash pins levels, scaled targets and class
// attribution together. Single-class streams encode all-zero class
// bytes; EncodeDecisions stays the format the committed parity golden
// uses.
func EncodeClassedDecisions(ds []policy.ReplayDecision) []byte {
	buf := make([]byte, 0, 13*len(ds))
	var b [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint32(b[:4], uint32(d.Level))
		buf = append(buf, b[:4]...)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(d.QoSPrime)))
		buf = append(buf, b[:8]...)
		buf = append(buf, d.Class)
	}
	return buf
}

// decisionLog collects the simulator adapter's decisions via the
// manager's attribution sink, projected to the parity tuple.
type decisionLog struct {
	out []policy.ReplayDecision
}

func (l *decisionLog) RecordDecision(d server.Decision) {
	l.out = append(l.out, policy.ReplayDecision{
		Level:    d.Level,
		QoSPrime: policy.Duration(d.QoSPrime),
		Class:    d.Class,
	})
}

// traceRecorder wraps the manager's server hooks and writes a
// policy.Trace mirroring exactly the decisions the ReTail manager makes:
// Arrival re-decides for the running head with the newcomer as the extra
// pipeline member, Ready re-decides when fresh features land mid-run,
// Start decides for the newly scheduled request, Complete feeds the
// monitor. The recorder observes the same worker state at the same
// virtual instant the manager does, so every recorded float64 equals the
// one the manager consumed.
type traceRecorder struct {
	inner server.Hooks
	specs []workload.FeatureSpec
	tr    *policy.Trace
}

func (rec *traceRecorder) noteRequest(r *workload.Request) {
	if _, ok := rec.tr.Gens[r.ID]; ok {
		return
	}
	rec.tr.Gens[r.ID] = float64(r.Gen)
	// Moses-class apps only: every feature has zero lateness, so the
	// observable vector is readiness-independent and can be captured once.
	rec.tr.Features[r.ID] = manager.AppendObservableFeatures(nil, rec.specs, r, true, false)
	if rec.tr.Classes != nil {
		rec.tr.Classes[r.ID] = r.SLOClass
	}
}

func (rec *traceRecorder) decision(e *sim.Engine, w *server.Worker, head *workload.Request, progress float64, extra *workload.Request) {
	q := w.Queue()
	ids := make([]uint64, len(q))
	for i, r := range q {
		ids[i] = r.ID
	}
	ev := policy.TraceEvent{
		Kind:     policy.DecisionEvent,
		At:       policy.Time(e.Now()),
		Head:     head.ID,
		Progress: progress,
		Queue:    ids,
	}
	if extra != nil {
		ev.Extra, ev.HasExtra = extra.ID, true
	}
	rec.tr.Events = append(rec.tr.Events, ev)
}

// Arrival mirrors manager.ReTail.Arrival's trigger: a newcomer re-decides
// the running head's frequency with itself as the extra member.
func (rec *traceRecorder) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	rec.noteRequest(r)
	if cur := w.Current(); cur != nil {
		rec.decision(e, w, cur, w.ProgressFraction(e.Now()), r)
	}
	return rec.inner.Arrival(e, w, r)
}

// Ready mirrors manager.ReTail.Ready: fresh features re-decide for the
// running head (not for the request that just became ready).
func (rec *traceRecorder) Ready(e *sim.Engine, w *server.Worker, r *workload.Request) {
	if cur := w.Current(); cur != nil && cur != r {
		rec.decision(e, w, cur, w.ProgressFraction(e.Now()), nil)
	}
	rec.inner.Ready(e, w, r)
}

// Start mirrors manager.ReTail.Start: every scheduled request decides.
func (rec *traceRecorder) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	rec.decision(e, w, r, 0, nil)
	rec.inner.Start(e, w, r)
}

// Complete records the monitor observation.
func (rec *traceRecorder) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	rec.tr.Events = append(rec.tr.Events, policy.TraceEvent{
		Kind:    policy.CompletionEvent,
		At:      policy.Time(e.Now()),
		Sojourn: float64(r.Sojourn()),
	})
	rec.inner.Complete(e, w, r)
}

// parityTimer adapts the sim engine to policy.Timer for the recorder's
// tick chain.
type parityTimer struct{ e *sim.Engine }

func (t parityTimer) AfterFunc(d policy.Duration, name string, fn func(now policy.Time)) {
	t.e.After(sim.Duration(d), name, func(en *sim.Engine) { fn(float64(en.Now())) })
}

// recordPolicyTrace is the core.RunConfig instrument of every recording
// run: it taps each decision input into tr and appends a tick event on
// the manager's monitor cadence.
func recordPolicyTrace(app workload.App, tr *policy.Trace) func(*sim.Engine, *server.Server) {
	interval := float64(manager.DefaultReTailConfig().MonitorInterval)
	return func(e *sim.Engine, srv *server.Server) {
		srv.Hooks = &traceRecorder{inner: srv.Hooks, specs: app.FeatureSpecs(), tr: tr}
		policy.RunMonitor(parityTimer{e}, interval, "parity.tick", func(now policy.Time) {
			tr.Events = append(tr.Events, policy.TraceEvent{Kind: policy.TickEvent, At: now})
		})
	}
}

// RunParity executes one simulated ReTail run with the trace recorder
// attached, replays the trace through the live adapter, and returns both
// decision streams.
//
// Event-order fidelity of the recorded ticks: the manager's monitor
// chain ("retail.monitor") is scheduled as the last act of Attach, and
// the recorder's chain ("parity.tick") is scheduled immediately after in
// Instrument — consecutive sequence numbers in the event heap. At every
// interval boundary the recorder's tick therefore fires directly after
// the manager's with nothing in between, so a recorded TickEvent sits at
// exactly the position in the event stream where the manager's monitor
// stepped.
func RunParity(cfg ParityConfig) (*ParityResult, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.RPS == 0 {
		cfg.RPS = 150
	}
	if cfg.Duration == 0 {
		cfg.Duration = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	app := workload.NewMoses()
	for _, s := range app.FeatureSpecs() {
		if s.Lateness > 0 {
			return nil, fmt.Errorf("parity: app %q has late feature %q; the static-feature trace needs a zero-lateness app", app.Name(), s.Name)
		}
	}
	platform := core.DefaultPlatform().WithWorkers(cfg.Workers)
	cal, err := core.Calibrate(app, platform, 300, 1)
	if err != nil {
		return nil, fmt.Errorf("parity: calibrate: %w", err)
	}

	m := frozenReTail(cal, app)
	log := &decisionLog{}
	m.SetDecisionSink(log)

	tr := &policy.Trace{
		Features: map[uint64][]float64{},
		Gens:     map[uint64]policy.Time{},
	}
	_, err = core.Run(core.RunConfig{
		App:        app,
		Platform:   platform,
		Manager:    m,
		RPS:        cfg.RPS,
		Duration:   sim.Duration(cfg.Duration),
		Seed:       cfg.Seed,
		Instrument: recordPolicyTrace(app, tr),
	})
	if err != nil {
		return nil, fmt.Errorf("parity: sim run: %w", err)
	}
	ticks := 0
	for _, ev := range tr.Events {
		if ev.Kind == policy.TickEvent {
			ticks++
		}
	}

	replay := live.ReplayDecisions(tr, cal.Model, platform.Grid, m.MonitorSettings())
	res := &ParityResult{
		Sim:         log.out,
		Replay:      replay,
		Ticks:       ticks,
		SimBytes:    EncodeDecisions(log.out),
		ReplayBytes: EncodeDecisions(replay),
		Trace:       tr,
		Model:       cal.Model,
		Grid:        platform.Grid,
		Monitor:     m.MonitorSettings(),
	}
	return res, nil
}
