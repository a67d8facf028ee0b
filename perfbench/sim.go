package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"retail/internal/cluster"
	"retail/internal/core"
	"retail/internal/experiments"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/tune"
	"retail/internal/workload"
)

// setupReps is how often a run repeats its repeatable set-up steps;
// setup_s is the median.
const setupReps = 5

// timeSetup runs step setupReps times and returns the median duration.
func timeSetup(step func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(Median(ds)), nil
}

// Body is the host cost of repeated runs of a workload's fixed body.
type Body struct {
	Wall, CPU, AllocMB []float64 // per repetition: seconds, seconds, MB
}

// measureBody runs body until the window closes (at least minReps
// times; a repetition starts only if the last one's duration still fits),
// timing each on a fresh heap.
func measureBody(deadline time.Time, minReps int, body func() error) (*Body, error) {
	b := &Body{}
	var ms runtime.MemStats
	for rep := 0; ; rep++ {
		if rep >= minReps {
			last := time.Duration(b.Wall[len(b.Wall)-1] * 1e9)
			if time.Now().Add(last).After(deadline) {
				return b, nil
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0, cpu0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
		if err := body(); err != nil {
			return nil, err
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms)
		b.Wall = append(b.Wall, wall.Seconds())
		b.CPU = append(b.CPU, cpu.Seconds())
		b.AllocMB = append(b.AllocMB, float64(ms.TotalAlloc-alloc0)/(1<<20))
	}
}

// setHost records the host-clock body metrics shared by the simulated
// workloads: the per-request CPU is over reqs requests per repetition.
func (b *Body) setHost(m Metrics, reqs int, what string) {
	n := len(b.Wall)
	m.set("wall_s", Median(b.Wall), "s", "host", n, "median over repetitions of "+what)
	m.set("alloc_mb", Median(b.AllocMB), "MB", "host", n, "Go heap allocated per repetition")
	per := make([]float64, n)
	for i, c := range b.CPU {
		per[i] = c * 1e6 / float64(reqs)
	}
	m.set("cpu_us_per_req", Median(per), "us", "host", n, fmt.Sprintf("process CPU per simulated request (%d per repetition)", reqs))
}

// setSim records the virtual-time quality metrics of one simulated run:
// the gated energy in res.Metrics, the latency and misses in res.Extras.
func (res *Result) setSim(completed, dropped, violations int, p50, p99, tail, qos, energyJ float64, what string) {
	m, x := res.Metrics, res.Extras
	x.set("p50_ms", p50*1e3, "ms", "sim", completed, what)
	m.set("energy_mj_per_req", energyJ*1e3/float64(completed), "mJ", "sim", completed, what+": modelled socket energy (power model not validated against hardware)")
	x.set("p99_ms", p99*1e3, "ms", "sim", completed, what)
	x.set("tail_over_qos", tail/qos, "ratio", "sim", completed, what+": tail at the QoS percentile / QoS latency")
	x.set("miss_frac", frac(violations+dropped, completed+dropped), "share", "sim", completed+dropped, what+": dropped or over the QoS latency")
}

// setReplicaLayers records the per-layer metrics a traced replica gives:
// hook calls and time, decisions, queue depth at decide, inferences,
// retrains and frequency transitions.
func setReplicaLayers(m Metrics, plain, traced *Replica) {
	m.set("sim.events", float64(plain.Events), "count", "count", 0, "engine events fired by the untraced replica")
	m.set("sim.ns_per_event", float64(plain.WallNs)/float64(plain.Events), "ns", "host", 0, "untraced replica wall / events")
	h := traced.Hooks
	for k, name := range hookNames {
		mean := 0.0
		if h.calls[k] > 0 {
			mean = float64(h.ns[k]) / float64(h.calls[k])
		}
		m.set(name+"_calls", float64(h.calls[k]), "count", "count", 0, "")
		m.set(name+"_ns", mean, "ns", "host", h.calls[k], "mean per call")
	}
	m.set("manager.hook_share", float64(h.hookNs())/float64(traced.WallNs), "share", "host", 0, "hook time / traced replica wall")
	m.set("policy.decisions", float64(traced.Decisions), "count", "count", 0, "")
	q := traced.Queue.depths
	m.set("policy.queue_at_decide_mean", Mean(q), "count", "count", len(q), "")
	m.set("policy.queue_at_decide_p99", PercentileOf(q, 99), "count", "count", len(q), "")
	m.set("predict.inferences_per_decision", frac64(float64(traced.Inferences), float64(traced.Decisions)), "ratio", "count", traced.Decisions, "")
	m.set("predict.retrains", float64(traced.Retrains), "count", "count", 0, "")
	m.set("cpu.transitions_per_req", frac(traced.Transitions, traced.Res.Completed), "ratio", "count", traced.Res.Completed, "")
	m.set("trace.overhead_share", float64(traced.WallNs-plain.WallNs)/float64(plain.WallNs), "share", "host", 0,
		fmt.Sprintf("replica wall traced %.4fs vs untraced %.4fs", float64(traced.WallNs)/1e9, float64(plain.WallNs)/1e9))
}

// Fleet-steady sizing: 16 xapian nodes × 4 workers behind power-of-two
// routing, Poisson at 0.6 of the fleet's rough capacity
// (workload.MaxLoadRPS, which does not depend on the seed).
const (
	fleetNodes    = 16
	fleetWorkers  = 4
	fleetLoad     = 0.6
	fleetRequests = 500000 // warmup + window, per repetition
	replicaReqs   = 60000  // single-node replica for the traced pass
)

func runFleetSteady(opt Options) (*Result, error) {
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(fleetWorkers)
	var cal *core.Calibration
	calib, err := timeSetup(func() (err error) {
		cal, err = core.Calibrate(app, platform, 1000, opt.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	// CalibrateMaxLoad memoizes per app and worker count, so only its
	// first call in a process does the work: it is timed once.
	t0 := time.Now()
	perNode := core.CalibrateMaxLoad(app, platform, opt.Seed)
	maxload := time.Since(t0)
	rps := fleetLoad * fleetNodes * workload.MaxLoadRPS(app, fleetWorkers)
	span := sim.Duration(fleetRequests / rps)
	cfg := cluster.FleetConfig{
		Cal: cal, Nodes: fleetNodes, WorkersPerNode: fleetWorkers,
		Policy: "retail", Dispatcher: "power-of-two",
		RPS: rps, Warmup: span / 6, Duration: span - span/6, Seed: opt.Seed,
	}

	res := &Result{Metrics: Metrics{}, Extras: Metrics{}}
	m := res.Metrics
	var runs []*cluster.FleetResult
	minReps, deadline := 2, opt.deadline()
	if opt.Trace {
		deadline = time.Now()
	}
	body, err := measureBody(deadline, minReps, func() error {
		r, err := cluster.RunFleet(cfg)
		runs = append(runs, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	first := runs[0]
	same := true
	for _, r := range runs[1:] {
		same = same && fleetKey(r) == fleetKey(first)
	}
	res.check("fleet same seed twice", same, "%d repetitions, placement hash %016x, routed %d", len(runs), first.PlacementHash, first.Routed)
	for _, r := range runs {
		res.Outcome.Attempted += r.Completed + r.Dropped
		res.Outcome.Completed += r.Completed
		res.Outcome.OverQoS += r.Violations
		res.Outcome.Dropped += r.Dropped
	}

	if !opt.Trace {
		m.set("setup_s", (calib + maxload).Seconds(), "s", "host", setupReps, "median calibration + first max-load search")
		body.setHost(m, first.Routed, fmt.Sprintf("a %d-node fleet run", fleetNodes))
		res.setSim(first.Completed, first.Dropped, first.Violations, first.P50, first.P99, first.TailAtQoSPct, first.QoSTarget, first.EnergyJ, "fleet window")
		res.Extras.set("knee_rps", fleetNodes*perNode, "1/s", "sim", 0, "calibrated per-node max load × nodes (max-frequency node meeting QoS)")
		return res, nil
	}

	// Traced pass: one node of the fleet as a core.Run replica at the
	// per-node rate, untraced then traced.
	tr := NewTracer()
	nodeRPS := rps / fleetNodes
	nodeSpan := sim.Duration(replicaReqs / nodeRPS)
	rcfg := func() core.RunConfig {
		return core.RunConfig{App: app, Platform: platform, Manager: cal.NewReTail(),
			RPS: nodeRPS, Warmup: nodeSpan / 6, Duration: nodeSpan - nodeSpan/6, Seed: opt.Seed}
	}
	plain, err := runReplica(rcfg(), nil)
	if err != nil {
		return nil, err
	}
	traced, err := runReplica(rcfg(), tr)
	if err != nil {
		return nil, err
	}
	res.check("replica unchanged by tracing", replicaKey(plain.Res) == replicaKey(traced.Res), "p99 %.6fs, energy %.4fJ", traced.Res.P99, traced.Res.EnergyJ)
	setLayerDefaults(m)
	m.set("core.calibrate_s", calib.Seconds(), "s", "host", setupReps, "median")
	m.set("core.maxload_s", maxload.Seconds(), "s", "host", 1, "")
	setReplicaLayers(m, plain, traced)
	m.set("cluster.ns_per_req", Median(body.Wall)*1e9/float64(first.Routed), "ns", "host", len(body.Wall), "fleet body wall / routed requests")
	m.set("cluster.imbalance_cv", first.ImbalanceCV, "ratio", "sim", fleetNodes, "CV of per-node completions")
	return res, writeSpans(tr, opt, "fleet-steady")
}

// fleetKey is the part of a fleet result that must repeat exactly.
func fleetKey(r *cluster.FleetResult) string {
	return fmt.Sprintf("%x/%d/%d/%d/%d/%v/%v/%v/%v", r.PlacementHash, r.Routed, r.Completed, r.Dropped,
		r.Violations, r.P50, r.P99, r.TailAtQoSPct, r.EnergyJ)
}

// replicaKey is the part of a single-server result that must repeat
// exactly.
func replicaKey(r *core.Result) string {
	return fmt.Sprintf("%d/%d/%d/%v/%v/%v/%v/%d", r.Completed, r.Dropped, r.Violations, r.P50, r.P99,
		r.TailAtQoSPct, r.EnergyJ, r.Transitions)
}

func writeSpans(tr *Tracer, opt Options, name string) error {
	path, err := tr.Write(opt.SpanDir, name)
	if err == nil {
		fmt.Printf("  spans written to %s\n", path)
	}
	return err
}

// Tune-burst sizing: a moses trace recorded from overload-mmpp at 0.7 of
// the calibrated max load, replayed under an 8-candidate grid of QoS′
// monitor knobs on 8 workers. The recording is cut to a fixed record
// count so every seed replays the same amount of work.
const (
	tuneWorkers  = 8
	tuneSamples  = 400
	tuneLoad     = 0.7
	tuneHorizonS = 330
	tuneRecords  = 90000
)

// tuneSpec is the fixed 8-candidate search.
func tuneSpec() *tune.Spec {
	return &tune.Spec{
		Version: 1, Name: "perfbench-burst", Mode: "grid",
		Base: policy.Params{},
		Axes: []tune.Axis{
			{Field: "monitor.guard_band", Values: []float64{0.9, 0.96}},
			{Field: "monitor.step_frac", Values: []float64{0.03, 0.06}},
			{Field: "monitor.relax_below", Values: []float64{0.8, 0.9}},
		},
	}
}

func runTuneBurst(opt Options) (*Result, error) {
	app := workload.NewMoses()
	platform := core.DefaultPlatform().WithWorkers(tuneWorkers)
	t0 := time.Now()
	maxRPS := core.CalibrateMaxLoad(app, platform, opt.Seed)
	maxload := time.Since(t0)
	spec := workload.BuiltinSpec("overload-mmpp").ScaledTo(tuneLoad * maxRPS)

	var (
		cal          *core.Calibration
		rec, decoded *workload.Trace
		encoded      []byte
		tCal, tRec   []float64
		tEnc, tDec   []float64
	)
	setup, err := timeSetup(func() error {
		var err error
		t := time.Now()
		if cal, err = core.Calibrate(app, platform, tuneSamples, opt.Seed); err != nil {
			return err
		}
		tCal = append(tCal, time.Since(t).Seconds())
		t = time.Now()
		rec = workload.RecordTrace(spec, opt.Seed, tuneHorizonS)
		if len(rec.Records) > tuneRecords {
			rec.Records = rec.Records[:tuneRecords]
			rec.Header.Records = tuneRecords
		}
		tRec = append(tRec, time.Since(t).Seconds())
		t = time.Now()
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			return err
		}
		encoded = buf.Bytes()
		tEnc = append(tEnc, time.Since(t).Seconds())
		t = time.Now()
		decoded, err = workload.ReadTrace(bytes.NewReader(encoded))
		tDec = append(tDec, time.Since(t).Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Metrics: Metrics{}, Extras: Metrics{}}
	m := res.Metrics
	recBytes, err1 := rec.CanonicalBytes()
	decBytes, err2 := decoded.CanonicalBytes()
	res.check("trace v2 encode → read → canonical bytes", err1 == nil && err2 == nil && bytes.Equal(recBytes, decBytes),
		"%d records, %d canonical bytes", len(decoded.Records), len(decBytes))

	tcfg := tune.Config{
		Trace: decoded, Spec: tuneSpec(), Manager: "retail", Workers: tuneWorkers,
		SamplesPerLevel: tuneSamples, Seed: opt.Seed, Parallel: runtime.NumCPU(),
	}
	var runs []*tune.Result
	minReps, deadline := 2, opt.deadline()
	if opt.Trace {
		minReps, deadline = 1, time.Now()
	}
	body, err := measureBody(deadline, minReps, func() error {
		r, err := tune.Run(tcfg)
		runs = append(runs, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	first := runs[0]
	same := true
	for _, r := range runs[1:] {
		same = same && r.Render() == first.Render()
	}
	res.check("tune same seed twice", same, "%d repetitions, winner candidate %d", len(runs), first.Winner().Index)
	for _, r := range runs {
		for _, c := range r.Candidates {
			res.Outcome.Attempted += c.Completed + c.Dropped
			res.Outcome.Completed += c.Completed
			res.Outcome.OverQoS += c.Violations
			res.Outcome.Dropped += c.Dropped
		}
	}

	// Replay the winner on its own: it must reproduce the scored figures,
	// and it supplies the p50 the tune table does not carry.
	win := first.Winner()
	span := sim.Duration(decoded.Records[len(decoded.Records)-1].Arrival)
	rcfg := func() core.RunConfig {
		return core.RunConfig{App: app, Platform: platform, Manager: cal.NewReTailParams(win.Params),
			Replay: decoded, Warmup: span / 6, Duration: span - span/6, Seed: opt.Seed}
	}
	plain, err := runReplica(rcfg(), nil)
	if err != nil {
		return nil, err
	}
	w := plain.Res
	res.check("winner replay reproduces its score", w.P99 == win.P99 && w.EnergyJ == win.EnergyJ && w.Violations == win.Violations,
		"p99 %.6fs, energy %.4fJ, %d violations", w.P99, w.EnergyJ, w.Violations)

	if !opt.Trace {
		m.set("setup_s", setup.Seconds()+maxload.Seconds(), "s", "host", setupReps, "median calibration + trace record/encode/decode, + first max-load search")
		body.setHost(m, len(first.Candidates)*len(decoded.Records), fmt.Sprintf("a %d-candidate tune at parallel %d", len(first.Candidates), tcfg.Parallel))
		res.setSim(w.Completed, w.Dropped, w.Violations, w.P50, w.P99, w.TailAtQoSPct, w.QoSTarget, w.EnergyJ, "tune winner")
		res.Extras.set("knee_rps", maxRPS, "1/s", "sim", 0, "calibrated max load (max-frequency server meeting QoS)")
		return res, nil
	}

	tr := NewTracer()
	traced, err := runReplica(rcfg(), tr)
	if err != nil {
		return nil, err
	}
	res.check("replica unchanged by tracing", replicaKey(plain.Res) == replicaKey(traced.Res), "p99 %.6fs, energy %.4fJ", traced.Res.P99, traced.Res.EnergyJ)
	sweepWall, candS, err := tracedSweep(tr, tcfg, cal, first)
	if err != nil {
		return nil, err
	}
	res.check("traced sweep matches tune.Run", candS != nil, "%d candidates", len(first.Candidates))
	setLayerDefaults(m)
	m.set("core.calibrate_s", Median(tCal), "s", "host", setupReps, "median")
	m.set("core.maxload_s", maxload.Seconds(), "s", "host", 1, "")
	m.set("workload.record_s", Median(tRec), "s", "host", setupReps, "median")
	m.set("workload.trace_encode_s", Median(tEnc), "s", "host", setupReps, "median")
	m.set("workload.trace_decode_s", Median(tDec), "s", "host", setupReps, "median")
	m.set("workload.trace_bytes", float64(len(encoded)), "bytes", "count", len(decoded.Records), "")
	setReplicaLayers(m, plain, traced)
	if candS != nil {
		sum := 0.0
		for _, s := range candS {
			sum += s
		}
		m.set("tune.cand_s", Mean(candS), "s", "host", len(candS), "mean candidate replay in the traced sweep")
		m.set("sweep.efficiency", sum/(sweepWall*float64(tcfg.Parallel)), "share", "host", len(candS), "Σ candidate s / (sweep wall × parallel)")
	}
	return res, writeSpans(tr, opt, "tune-burst")
}

// tracedSweep re-runs tune.Run's candidate sweep through the same sweep
// runner with each cell timed and spanned, and confirms it reproduces
// ref's candidates. It returns the sweep wall seconds and the seconds of
// each candidate (nil when the replay disagrees with ref).
func tracedSweep(tr *Tracer, cfg tune.Config, cal *core.Calibration, ref *tune.Result) (float64, []float64, error) {
	cands, err := cfg.Spec.Candidates()
	if err != nil {
		return 0, nil, err
	}
	span := sim.Duration(cfg.Trace.Records[len(cfg.Trace.Records)-1].Arrival)
	warmup := span / 6
	root := tr.Begin("tune.sweep", -1, 0)
	secs := make([]float64, len(cands))
	cells := make([]experiments.SweepCell[*core.Result], len(cands))
	for i, cand := range cands {
		cells[i] = experiments.SweepCell[*core.Result]{
			Label: fmt.Sprintf("perfbench/cand=%d", cand.Index),
			Run: func() (*core.Result, error) {
				start := tr.Now()
				t0 := time.Now()
				m, err := cal.NewManagerParams(cfg.Manager, nil, cand.Params)
				if err != nil {
					return nil, err
				}
				r, err := core.Run(core.RunConfig{
					App: cal.App, Platform: cal.Platform, Manager: m,
					Replay: cfg.Trace, Warmup: warmup, Duration: span - warmup, Seed: cfg.Seed,
				})
				secs[i] = time.Since(t0).Seconds()
				tr.Add("tune.cand", start, tr.Now(), root, uint64(cand.Index))
				return r, err
			},
		}
	}
	t0 := time.Now()
	runs, err := experiments.RunSweep(cfg.Parallel, cells)
	wall := time.Since(t0).Seconds()
	tr.Finish(root)
	if err != nil {
		return 0, nil, err
	}
	for i, r := range runs {
		c := ref.Candidates[i]
		if r.P99 != c.P99 || r.EnergyJ != c.EnergyJ || r.Violations != c.Violations {
			return wall, nil, nil
		}
	}
	return wall, secs, nil
}
