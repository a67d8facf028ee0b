package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/manager"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// hookNames are the manager/server boundary spans, in server.Hooks order.
var hookNames = [4]string{"manager.arrival", "manager.ready", "manager.start", "manager.complete"}

// hookProbe wraps a server's manager hooks (installed through
// core.RunConfig.Instrument) and times every call into the manager.
type hookProbe struct {
	inner  server.Hooks
	tr     *Tracer
	parent int32
	calls  [4]int
	ns     [4]int64
}

func (p *hookProbe) done(k int, start int64, req uint64) {
	end := p.tr.Now()
	p.calls[k]++
	p.ns[k] += end - start
	p.tr.Add(hookNames[k], start, end, p.parent, req)
}

func (p *hookProbe) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	id, t := r.ID, p.tr.Now()
	ok := p.inner.Arrival(e, w, r)
	p.done(0, t, id)
	return ok
}

func (p *hookProbe) Ready(e *sim.Engine, w *server.Worker, r *workload.Request) {
	id, t := r.ID, p.tr.Now()
	p.inner.Ready(e, w, r)
	p.done(1, t, id)
}

func (p *hookProbe) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	id, t := r.ID, p.tr.Now()
	p.inner.Start(e, w, r)
	p.done(2, t, id)
}

func (p *hookProbe) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	id, t := r.ID, p.tr.Now()
	p.inner.Complete(e, w, r)
	p.done(3, t, id)
}

// hookNs returns the summed time spent in the manager's hooks.
func (p *hookProbe) hookNs() int64 { return p.ns[0] + p.ns[1] + p.ns[2] + p.ns[3] }

// queueSink collects the queue depth of every frequency decision.
type queueSink struct{ depths []float64 }

func (q *queueSink) RecordDecision(d server.Decision) {
	q.depths = append(q.depths, float64(d.QueueLen))
}

// Replica is one core.Run of a single server, observed from outside: the
// engine's event count, the socket's frequency transitions, the ReTail
// counters and, when traced, every hook call.
type Replica struct {
	Res         *core.Result
	WallNs      int64
	Events      uint64
	Transitions int
	Hooks       *hookProbe // nil when untraced
	Queue       *queueSink // nil when untraced
	Decisions   int
	Inferences  uint64
	Retrains    int
}

// runReplica executes cfg, whose manager must be a *manager.ReTail. With
// a tracer it wraps the manager's hooks and decision sink and records a
// "sim.run" span holding every hook span.
func runReplica(cfg core.RunConfig, tr *Tracer) (*Replica, error) {
	mgr := cfg.Manager.(*manager.ReTail)
	rep := &Replica{}
	var (
		eng *sim.Engine
		srv *server.Server
	)
	root := int32(-1)
	if tr != nil {
		root = tr.Begin("sim.run", -1, 0)
		rep.Queue = &queueSink{}
		mgr.SetDecisionSink(rep.Queue)
	}
	cfg.Instrument = func(e *sim.Engine, s *server.Server) {
		eng, srv = e, s
		if tr != nil {
			rep.Hooks = &hookProbe{inner: s.Hooks, tr: tr, parent: root}
			s.Hooks = rep.Hooks
		}
	}
	runtime.GC()
	t0 := time.Now()
	res, err := core.Run(cfg)
	rep.WallNs = int64(time.Since(t0))
	if tr != nil {
		tr.Finish(root)
	}
	if err != nil {
		return nil, err
	}
	rep.Res, rep.Events, rep.Transitions = res, eng.Fired(), srv.Socket.Transitions()
	rep.Decisions, rep.Inferences, rep.Retrains = mgr.Decisions(), mgr.Inferences(), mgr.Retrains()
	return rep, nil
}

// timedPredictor wraps the live runtime's predictor (ServerConfig.Predictor).
type timedPredictor struct {
	inner predict.Predictor
	tr    *Tracer
	calls atomic.Int64
	ns    atomic.Int64
}

func (p *timedPredictor) Predict(lvl cpu.Level, f []float64) float64 {
	t := p.tr.Now()
	v := p.inner.Predict(lvl, f)
	end := p.tr.Now()
	p.calls.Add(1)
	p.ns.Add(end - t)
	p.tr.Add("live.predict", t, end, -1, 0)
	return v
}

// timedBackend wraps the live runtime's DVFS backend
// (ServerConfig.Backend). It keeps the BatchBackend surface so the
// runtime takes the same path it takes with the bare backend.
type timedBackend struct {
	inner  live.BatchBackend
	tr     *Tracer
	writes atomic.Int64
	ns     atomic.Int64
}

func (b *timedBackend) Grid() *cpu.Grid { return b.inner.Grid() }

func (b *timedBackend) SetLevel(core int, lvl cpu.Level) error {
	t := b.tr.Now()
	err := b.inner.SetLevel(core, lvl)
	b.done(t)
	return err
}

func (b *timedBackend) SetLevels(writes []live.LevelWrite) error {
	t := b.tr.Now()
	err := b.inner.SetLevels(writes)
	b.done(t)
	return err
}

func (b *timedBackend) done(start int64) {
	end := b.tr.Now()
	b.writes.Add(1)
	b.ns.Add(end - start)
	b.tr.Add("live.dvfs", start, end, -1, 0)
}
