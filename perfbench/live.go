package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/predict"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Live-loopback sizing. The reference rate is where latency, CPU and
// energy are read; the ladder climbs geometrically past this host's
// capacity so the knee sits inside it. A run makes liveRounds rounds of
// one reference volley and one climb; the reference volleys take
// liveRefShare of --seconds and the climbs liveLadderShare.
const (
	liveRefRPS      = 20000.0
	liveLadderFrom  = 50000.0
	liveLadderRatio = 1.07
	liveLadderSteps = 12
	liveRounds      = 3
	liveRefShare    = 0.3
	liveLadderShare = 0.45
	liveRefWindows  = 3 // per reference volley
	liveStepWindows = 4
	liveWarmup      = 500 * time.Millisecond
	liveTracedRef   = time.Second
	liveDrain       = 3 * time.Second
	liveSetupReps   = 3
)

// liveLadder returns the ladder's step rates.
func liveLadder() []float64 {
	rates := make([]float64, liveLadderSteps)
	for i := range rates {
		rates[i] = math.Round(liveLadderFrom * math.Pow(liveLadderRatio, float64(i)))
	}
	return rates
}

// liveSession is one in-process server with the generator's connections.
type liveSession struct {
	srv     *live.Server
	gen     *Generator
	app     workload.App
	grid    *cpu.Grid
	power   cpu.PowerModel
	mock    *live.MockBackend
	pred    *timedPredictor // nil when untraced
	backend *timedBackend   // nil when untraced
}

func (s *liveSession) close() {
	if s.gen != nil {
		s.gen.Close()
	}
	s.srv.Close()
}

// startLive starts a retail server (full Algorithm 1, the calibrated
// xapian model, a mock DVFS backend, a no-op executor) on a loopback port
// and dials nproc generator connections to it. With a tracer the
// predictor and backend are wrapped.
func startLive(cal *core.Calibration, tr *Tracer) (*liveSession, error) {
	workers := runtime.NumCPU()
	s := &liveSession{app: cal.App, grid: cal.Platform.Grid, power: cal.Platform.Power}
	s.mock = live.NewMockBackend(s.grid)
	var (
		pred    predict.Predictor = cal.Model
		backend live.Backend      = s.mock
	)
	if tr != nil {
		s.pred = &timedPredictor{inner: cal.Model, tr: tr}
		s.backend = &timedBackend{inner: s.mock, tr: tr}
		pred, backend = s.pred, s.backend
	}
	srv, err := live.NewServer(live.ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   workers,
		QoS:       cal.App.QoS(),
		Predictor: pred,
		Backend:   backend,
		Exec:      func(live.Request, cpu.Level) {},
		Policy:    "retail",
		AppName:   cal.App.Name(),
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	s.srv = srv
	if s.gen, err = NewGenerator(srv.Addr(), workers); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ladderTrace draws one volley's open-loop schedule: a Poisson xapian
// cohort at rps for dur, recorded as a trace v2 stream.
func ladderTrace(rps float64, dur time.Duration, seed int64) (*workload.Trace, error) {
	spec := &workload.Spec{
		Version: workload.SpecVersion, Name: "perfbench-live", Seed: seed,
		Cohorts: []workload.CohortSpec{{
			App: "xapian", Clients: runtime.NumCPU(), RPS: rps,
			Arrival: workload.ArrivalSpec{Kind: workload.ArrivalPoisson}, Class: "standard",
		}},
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return workload.RecordTrace(spec, seed, sim.Duration(dur.Seconds())), nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally classifies every shot of a volley. An answer whose stamps are out
// of order or whose level is off the grid breaks the protocol.
func tally(v *Volley, qos workload.QoS, levels int) Outcome {
	o := Outcome{Attempted: len(v.Shots), Broken: v.Stray}
	for i := range v.Shots {
		s := &v.Shots[i]
		r := &s.Resp
		switch {
		case s.Answers == 0:
			o.Unanswered++
		case s.Answers > 1:
			o.Broken++
		case r.Dropped:
			o.Dropped++
		case r.RecvNs > r.StartNs || r.StartNs > r.EndNs || r.Level < 0 || r.Level >= levels:
			o.Broken++
		default:
			o.Completed++
			if s.Latency() > qos.Latency.Std() {
				o.OverQoS++
			}
		}
	}
	return o
}

// windowed splits a volley by due time into n equal windows and returns,
// per window, the latency median and tail (at pct) of the completed shots
// and the 99th percentile of the send lag, all in seconds.
func windowed(v *Volley, n int, pct float64) (p50, tail, lag []float64) {
	if len(v.Shots) == 0 {
		return nil, nil, nil
	}
	first, last := v.Shots[0].DueNs, v.Shots[len(v.Shots)-1].DueNs
	lats, lags := make([][]float64, n), make([][]float64, n)
	for i := range v.Shots {
		s := &v.Shots[i]
		w := int(float64(s.DueNs-first) * float64(n) / float64(last-first+1))
		lags[w] = append(lags[w], s.Lag().Seconds())
		if s.Answers > 0 && !s.Resp.Dropped {
			lats[w] = append(lats[w], s.Latency().Seconds())
		}
	}
	for w := 0; w < n; w++ {
		if len(lats[w]) > 0 {
			p50 = append(p50, PercentileOf(lats[w], 50))
			tail = append(tail, PercentileOf(lats[w], pct))
		}
		if len(lags[w]) > 0 {
			lag = append(lag, PercentileOf(lags[w], 99))
		}
	}
	return p50, tail, lag
}

// liveRun is one measured pass: a warm-up, then rounds of a reference
// volley followed by one climb of the ladder. Spreading the reference
// and the ladder over rounds keeps one noisy stretch of the host from
// deciding a figure.
type liveRun struct {
	refs      []*Volley
	refTraces []*workload.Trace
	refOut    Outcome
	refCPU    time.Duration
	steps     []Step
	outcome   Outcome // every volley, warm-up included
	ladderOut Outcome // reference + ladder volleys
	wallS     float64 // reference + ladder volleys
	allocMB   float64
}

// fire sends one volley and tallies it. The heap bytes allocated while
// it ran (server and generator, not the schedule recording between
// volleys) are added to run.allocMB unless warm is set.
func (s *liveSession) fire(tr *workload.Trace, run *liveRun, warm bool) (*Volley, Outcome, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	v, err := s.gen.Fire(tr, liveDrain)
	if err != nil {
		return nil, Outcome{}, err
	}
	runtime.ReadMemStats(&ms)
	if !warm {
		run.allocMB += float64(ms.TotalAlloc-alloc0) / (1 << 20)
	}
	o := tally(v, s.app.QoS(), s.grid.Levels())
	run.outcome.add(o)
	return v, o, nil
}

// limits are the ladder's pass conditions for the session's app.
func (s *liveSession) limits() StepLimits {
	qos := float64(s.app.QoS().Latency)
	return StepLimits{QoSS: qos, MaxLagS: qos / 2}
}

// stepOf scores a volley as a ladder step.
func (s *liveSession) stepOf(rps float64, v *Volley, o Outcome, windows int) Step {
	_, tail, lag := windowed(v, windows, s.app.QoS().Percentile)
	return Step{RPS: rps, Outcome: o, TailS: Median(tail), LagS: Median(lag), Backlog: v.Backlog}
}

// measureLive fires the warm-up, then per reference schedule one round:
// the reference volley and a climb of the ladder.
func (s *liveSession) measureLive(refs []*workload.Trace, seed int64, stepDur time.Duration, ladder []float64) (*liveRun, error) {
	run := &liveRun{refTraces: refs}
	warm, err := ladderTrace(liveRefRPS, liveWarmup, seed^0x5eed)
	if err != nil {
		return nil, err
	}
	if _, _, err := s.fire(warm, run, true); err != nil {
		return nil, err
	}
	for r, ref := range refs {
		c0 := cpuTime()
		v, o, err := s.fire(ref, run, false)
		if err != nil {
			return nil, err
		}
		run.refCPU += cpuTime() - c0
		run.refs = append(run.refs, v)
		run.refOut.add(o)
		run.steps = append(run.steps, s.stepOf(liveRefRPS, v, o, liveRefWindows))
		run.wallS += v.ElapsedS
		run.ladderOut.add(o)
		for i, rps := range ladder {
			tr, err := ladderTrace(rps, stepDur, seed*1000+int64(r*100+i))
			if err != nil {
				return nil, err
			}
			v, o, err := s.fire(tr, run, false)
			if err != nil {
				return nil, err
			}
			run.steps = append(run.steps, s.stepOf(rps, v, o, liveStepWindows))
			run.wallS += v.ElapsedS
			run.ladderOut.add(o)
		}
	}
	for _, st := range run.steps {
		fmt.Printf("  step %7.0f/s n=%-7d tail %8.3fms lag p99 %7.3fms backlog %-6d missed %-6d meets=%v\n",
			st.RPS, st.Outcome.Attempted, st.TailS*1e3, st.LagS*1e3, st.Backlog, st.Outcome.Missed(), st.Meets(s.limits()))
	}
	return run, nil
}

// refLatency returns the reference volleys' latency median and tail in
// seconds, each the median over all their time windows, with the sample
// count.
func (r *liveRun) refLatency(pct float64) (p50, tail float64, n int) {
	var p50s, tails []float64
	for _, v := range r.refs {
		p, t, _ := windowed(v, liveRefWindows, pct)
		p50s, tails = append(p50s, p...), append(tails, t...)
	}
	return Median(p50s), Median(tails), r.refOut.Completed
}

// refShots returns the reference volleys' shot count.
func (r *liveRun) refShots() int {
	n := 0
	for _, v := range r.refs {
		n += len(v.Shots)
	}
	return n
}

// energyPerReq models the joules of the reference volleys' answered
// requests: each runs for the app model's service time at the level the
// server chose, at the power model's active power for that level.
func (s *liveSession) energyPerReq(r *liveRun) float64 {
	fmax := s.grid.MaxFreq()
	total, n := 0.0, 0
	for k, v := range r.refs {
		for i := range v.Shots {
			sh := &v.Shots[i]
			if sh.Answers != 1 || sh.Resp.Dropped || sh.Resp.Level < 0 || sh.Resp.Level >= s.grid.Levels() {
				continue
			}
			rec := &r.refTraces[k].Records[i]
			f := s.grid.Freq(cpu.Level(sh.Resp.Level))
			req := workload.Request{ServiceBase: rec.ServiceBase, ComputeFrac: rec.ComputeFrac}
			total += s.power.ActiveW(f) * float64(req.ServiceAt(f, fmax, 1))
			n++
		}
	}
	return total / math.Max(1, float64(n))
}

func runLiveLoopback(opt Options) (*Result, error) {
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(runtime.NumCPU())
	seconds := func(share float64) time.Duration {
		return time.Duration(share * opt.Seconds * float64(time.Second))
	}
	rounds, refDur := liveRounds, seconds(liveRefShare/liveRounds)
	stepDur := seconds(liveLadderShare / (liveRounds * liveLadderSteps))
	ladder := liveLadder()
	if opt.Trace {
		rounds, refDur, ladder = 1, liveTracedRef, nil
	}
	var (
		cal        *core.Calibration
		refs       []*workload.Trace
		sess       *liveSession
		tCal, tRec []float64
		setups     []float64
	)
	for i := 0; i < liveSetupReps; i++ {
		if sess != nil {
			sess.close()
		}
		t0 := time.Now()
		var err error
		if cal, err = core.Calibrate(app, platform, 1000, opt.Seed); err != nil {
			return nil, err
		}
		tCal = append(tCal, time.Since(t0).Seconds())
		t1 := time.Now()
		refs = refs[:0]
		for r := 0; r < rounds; r++ {
			tr, err := ladderTrace(liveRefRPS, refDur, opt.Seed+int64(r)<<40)
			if err != nil {
				return nil, err
			}
			refs = append(refs, tr)
		}
		tRec = append(tRec, time.Since(t1).Seconds())
		if sess, err = startLive(cal, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { sess.close() }()

	res := &Result{Metrics: Metrics{}, Extras: Metrics{}}
	m := res.Metrics
	qos := app.QoS()
	run, err := sess.measureLive(refs, opt.Seed, stepDur, ladder)
	if err != nil {
		return nil, err
	}
	p50, tail, n := run.refLatency(qos.Percentile)
	res.Outcome = run.outcome
	res.Outcome.Broken += sess.gen.Stray
	res.check("live answers exactly once, stamps ordered, level on grid",
		res.Outcome.Broken == 0, "%d requests, %d broken, %d unanswered, %d late answers",
		res.Outcome.Attempted, res.Outcome.Broken, res.Outcome.Unanswered, sess.gen.Late)

	if !opt.Trace {
		refN := run.refShots()
		m.set("wall_s", run.wallS, "s", "host", len(run.steps), "reference + ladder volleys, schedule-bound")
		m.set("setup_s", Median(setups), "s", "host", liveSetupReps, "median calibration + schedule record + server start")
		m.set("alloc_mb", run.allocMB, "MB", "host", run.ladderOut.Attempted, "Go heap allocated over reference + ladder (server and generator)")
		m.set("cpu_us_per_req", float64(run.refCPU.Microseconds())/float64(refN), "us", "host", refN, fmt.Sprintf("process CPU per request at %.0f/s", liveRefRPS))
		res.Extras.set("p50_ms", p50*1e3, "ms", "host", n, fmt.Sprintf("at %.0f/s from scheduled send, median of %d windows", liveRefRPS, rounds*liveRefWindows))
		res.Extras.set("p99_ms", tail*1e3, "ms", "host", n, fmt.Sprintf("p%g at %.0f/s, median of %d windows", qos.Percentile, liveRefRPS, rounds*liveRefWindows))
		var pooled []float64
		for _, v := range run.refs {
			for i := range v.Shots {
				if v.Shots[i].Answers > 0 && !v.Shots[i].Resp.Dropped {
					pooled = append(pooled, v.Shots[i].Latency().Seconds()*1e3)
				}
			}
		}
		d := Summarize(pooled)
		res.Extras.set("latency_tail_ms", d.Tail, "ms", "host", d.N, fmt.Sprintf("p%g of the pooled reference requests, the highest percentile with ≥ 10 beyond", d.TailPct))
		res.Extras.set("tail_over_qos", tail/float64(qos.Latency), "ratio", "host", n, "reference tail / QoS latency")
		m.set("energy_mj_per_req", sess.energyPerReq(run)*1e3, "mJ", "sim", n, "modelled active-core energy of the chosen levels at the app model's service time (not validated against hardware)")
		res.Extras.set("miss_frac", run.ladderOut.MissFrac(), "share", "host", run.ladderOut.Attempted, "reference + ladder requests dropped, unanswered or over QoS")
		res.Extras.set("knee_rps", Knee(run.steps, sess.limits()), "1/s", "host", len(run.steps), fmt.Sprintf("highest ladder rate meeting p%g ≤ QoS with no backlog, on schedule", qos.Percentile))
		return res, nil
	}

	// Traced pass: a second server whose predictor and backend are
	// wrapped, fed the same reference schedule.
	tr := NewTracer()
	tsess, err := startLive(cal, tr)
	if err != nil {
		return nil, err
	}
	defer tsess.close()
	trun, err := tsess.measureLive(refs, opt.Seed, 0, nil)
	if err != nil {
		return nil, err
	}
	res.Outcome.add(trun.outcome)
	res.Outcome.Broken += tsess.gen.Stray
	res.check("traced live answers exactly once, stamps ordered, level on grid",
		trun.outcome.Broken+tsess.gen.Stray == 0, "%d requests", trun.outcome.Attempted)
	tp50, _, _ := trun.refLatency(qos.Percentile)
	// The traced session's counters cover its warm-up and reference
	// volleys alike, so they are divided by the requests of both.
	decisions := float64(tsess.srv.Decisions())
	reqs := float64(trun.outcome.Attempted)
	spanVolley(tr, trun.refs[0])

	setLayerDefaults(m)
	m.set("core.calibrate_s", Median(tCal), "s", "host", liveSetupReps, "median")
	m.set("workload.record_s", Median(tRec), "s", "host", liveSetupReps, "median, reference schedule")
	var ing, queue, exec, egress, lag []float64
	for i := range run.refs[0].Shots {
		s := &run.refs[0].Shots[i]
		lag = append(lag, float64(s.Lag())/1e3)
		if s.Answers != 1 || s.Resp.Dropped {
			continue
		}
		r := s.Resp
		ing = append(ing, float64(r.RecvNs-s.SentNs)/1e3)
		queue = append(queue, float64(r.StartNs-r.RecvNs)/1e3)
		exec = append(exec, float64(r.EndNs-r.StartNs)/1e3)
		egress = append(egress, float64(s.RecvNs-r.EndNs)/1e3)
	}
	m.set("live.ingress_us", PercentileOf(ing, 50), "us", "host", len(ing), "median RecvNs − actual send")
	m.set("live.queue_us", PercentileOf(queue, 50), "us", "host", len(queue), "median StartNs − RecvNs")
	m.set("live.queue_us_p99", PercentileOf(queue, 99), "us", "host", len(queue), "p99 StartNs − RecvNs")
	m.set("live.exec_us", PercentileOf(exec, 50), "us", "host", len(exec), "median EndNs − StartNs (no-op executor)")
	m.set("live.egress_us", PercentileOf(egress, 50), "us", "host", len(egress), "median client receive − EndNs")
	m.set("loadgen.send_lag_us_p50", PercentileOf(lag, 50), "us", "host", len(lag), "")
	m.set("loadgen.send_lag_us_p99", PercentileOf(lag, 99), "us", "host", len(lag), "")
	pc, pns := float64(tsess.pred.calls.Load()), float64(tsess.pred.ns.Load())
	bw, bns := float64(tsess.backend.writes.Load()), float64(tsess.backend.ns.Load())
	m.set("live.predict_ns", frac64(pns, pc), "ns", "host", int(pc), "mean per wrapped Predict")
	m.set("live.predicts_per_decision", frac64(pc, decisions), "ratio", "count", int(decisions), "")
	m.set("live.dvfs_writes_per_req", bw/reqs, "ratio", "count", int(reqs), "backend calls per request")
	m.set("live.dvfs_ns", frac64(bns, bw), "ns", "host", int(bw), "mean per wrapped backend call")
	m.set("live.dvfs_coalesced", float64(tsess.srv.DegradeCounts().DVFSCoalesced), "count", "count", 0, "writes elided because the level was already set")
	var depths []float64
	for _, sp := range tsess.srv.Spans() {
		depths = append(depths, float64(sp.QueueLen))
	}
	m.set("policy.decisions", decisions, "count", "count", 0, "")
	m.set("policy.queue_at_decide_mean", Mean(depths), "count", "count", len(depths), "server flight ring")
	m.set("policy.queue_at_decide_p99", PercentileOf(depths, 99), "count", "count", len(depths), "server flight ring")
	m.set("predict.inferences_per_decision", frac64(pc, decisions), "ratio", "count", int(decisions), "")
	m.set("cpu.transitions_per_req", float64(tsess.mock.Writes())/reqs, "ratio", "count", int(reqs), "mock backend level changes per request")
	m.set("trace.overhead_share", (tp50-p50)/p50, "share", "host", 0,
		fmt.Sprintf("reference p50 traced %.4fms vs untraced %.4fms", tp50*1e3, p50*1e3))
	return res, writeSpans(tr, opt, "live-loopback")
}

// spanVolley records each answered request of a volley as a root span
// from its scheduled send to its client receive, with one child per
// stage the stamps delimit.
func spanVolley(tr *Tracer, v *Volley) {
	for i := range v.Shots {
		s := &v.Shots[i]
		if s.Answers != 1 || s.Resp.Dropped {
			continue
		}
		r, id := s.Resp, s.Resp.ID
		root := tr.Add("request", tr.At(s.DueNs), tr.At(s.RecvNs), -1, id)
		stages := [...]struct {
			name       string
			start, end int64
		}{
			{"loadgen.lag", s.DueNs, s.SentNs},
			{"live.ingress", s.SentNs, r.RecvNs},
			{"live.queue", r.RecvNs, r.StartNs},
			{"live.exec", r.StartNs, r.EndNs},
			{"live.egress", r.EndNs, s.RecvNs},
		}
		for _, st := range stages {
			tr.Add(st.name, tr.At(st.start), tr.At(st.end), root, id)
		}
	}
}
