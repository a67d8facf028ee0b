package server

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"retail/internal/cpu"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// fixedApp produces deterministic requests for queueing arithmetic.
type fixedApp struct {
	service sim.Duration
	cf      float64
	frac    float64 // stage-1 lateness fraction exposed via spec
}

func (f fixedApp) Name() string      { return "fixed" }
func (f fixedApp) QoS() workload.QoS { return workload.QoS{Latency: 1, Percentile: 99} }
func (f fixedApp) FeatureSpecs() []workload.FeatureSpec {
	return []workload.FeatureSpec{{Name: "x", Kind: workload.Numerical, Lateness: f.frac}}
}
func (f fixedApp) Generate(*rand.Rand) *workload.Request {
	return &workload.Request{App: "fixed", Features: []float64{1}, ServiceBase: f.service, ComputeFrac: f.cf}
}

func newServer(t *testing.T, app workload.App, workers int, frac func(*workload.Request) float64) *Server {
	t.Helper()
	g := cpu.DefaultGrid()
	return New(Config{
		App:        app,
		Workers:    workers,
		Grid:       g,
		Power:      cpu.DefaultPowerModel(g),
		Trans:      cpu.DefaultTransitionModel(),
		Seed:       1,
		Policy:     JoinShortestQueue,
		Stage1Frac: frac,
	})
}

func mkReq(service sim.Duration, cf float64) *workload.Request {
	return &workload.Request{App: "fixed", Features: []float64{1}, ServiceBase: service, ComputeFrac: cf}
}

func TestSingleRequestLifecycle(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	var done *workload.Request
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { done = r }
	r := mkReq(10*sim.Millisecond, 1)
	r.Gen = 0
	e.At(0, "submit", func(en *sim.Engine) { s.Submit(en, r) })
	e.RunAll()
	if done == nil {
		t.Fatal("request never completed")
	}
	// At max frequency with no queueing: sojourn == service == 10ms.
	if math.Abs(float64(done.Sojourn())-10e-3) > 1e-9 {
		t.Fatalf("sojourn = %v, want 10ms", done.Sojourn())
	}
	if done.QueueDelay() != 0 {
		t.Fatalf("queue delay = %v, want 0", done.QueueDelay())
	}
	if s.Completed() != 1 {
		t.Fatalf("completed = %d", s.Completed())
	}
}

func TestFCFSQueueing(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	var order []uint64
	var sojourns []sim.Duration
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
		order = append(order, r.ID)
		sojourns = append(sojourns, r.Sojourn())
	}
	for i := 0; i < 3; i++ {
		r := mkReq(10*sim.Millisecond, 1)
		r.ID = uint64(i)
		e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	}
	e.RunAll()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order = %v", order)
	}
	// Sojourns: 10, 20, 30 ms.
	for i, want := range []float64{10e-3, 20e-3, 30e-3} {
		if math.Abs(float64(sojourns[i])-want) > 1e-9 {
			t.Fatalf("sojourn[%d] = %v, want %v", i, sojourns[i], want)
		}
	}
}

func TestJSQSpreadsLoad(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 4, nil)
	e := sim.NewEngine()
	count := 0
	s.CompletedSink = func(*sim.Engine, *workload.Request) { count++ }
	for i := 0; i < 4; i++ {
		r := mkReq(10*sim.Millisecond, 1)
		e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	}
	e.Run(0.0101) // just past one service time
	if count != 4 {
		t.Fatalf("4 requests on 4 workers should finish in one service time; done=%d", count)
	}
}

func TestRoundRobinDispatch(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	g := cpu.DefaultGrid()
	s := New(Config{App: app, Workers: 2, Grid: g, Power: cpu.DefaultPowerModel(g),
		Trans: cpu.DefaultTransitionModel(), Seed: 1, Policy: RoundRobin})
	e := sim.NewEngine()
	for i := 0; i < 4; i++ {
		r := mkReq(10*sim.Millisecond, 1)
		e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	}
	e.Run(0.001)
	// RR: 2 requests per worker → each worker has 1 running + 1 queued.
	for _, w := range s.Workers() {
		if w.Outstanding() != 2 {
			t.Fatalf("worker %d outstanding = %d, want 2", w.ID, w.Outstanding())
		}
	}
}

func TestFrequencyChangeMidRequest(t *testing.T) {
	// 10ms fully-compute request at fmax. Halfway through, drop to fmin
	// (1.0 GHz vs 2.1 GHz): remaining 5ms of work stretches by 2.1×.
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	g := cpu.DefaultGrid()
	s := New(Config{App: app, Workers: 1, Grid: g, Power: cpu.DefaultPowerModel(g),
		Trans: cpu.TransitionModel{Min: 0, Mean: 0, Max: 0}, Seed: 1})
	e := sim.NewEngine()
	var end sim.Time
	s.CompletedSink = func(en *sim.Engine, r *workload.Request) { end = r.End }
	r := mkReq(10*sim.Millisecond, 1)
	e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	e.At(0.005, "downclock", func(en *sim.Engine) {
		s.Workers()[0].Core().SetLevel(en, 0)
	})
	e.RunAll()
	want := 0.005 + 0.005*2.1
	if math.Abs(float64(end)-want) > 1e-6 {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestMemoryBoundRequestScalesPartially(t *testing.T) {
	// ComputeFrac 0.5: at fmin the request takes 0.5·2.1 + 0.5 = 1.55×.
	app := fixedApp{service: 10 * sim.Millisecond, cf: 0.5}
	g := cpu.DefaultGrid()
	s := New(Config{App: app, Workers: 1, Grid: g, Power: cpu.DefaultPowerModel(g),
		Trans: cpu.TransitionModel{Min: 0, Mean: 0, Max: 0}, Seed: 1})
	e := sim.NewEngine()
	var end sim.Time
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { end = r.End }
	s.Workers()[0].Core().SetLevelImmediate(e, 0)
	r := mkReq(10*sim.Millisecond, 0.5)
	e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	e.RunAll()
	want := 10e-3 * (0.5*2.1 + 0.5)
	if math.Abs(float64(end)-want) > 1e-9 {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestInterferenceRescalesInFlight(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	var end sim.Time
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { end = r.End }
	r := mkReq(10*sim.Millisecond, 1)
	e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	// At 5ms, interference doubles all service demands: remaining 5ms of
	// work now takes 10ms.
	e.At(0.005, "interfere", func(en *sim.Engine) { s.SetInterference(en, 2) })
	e.RunAll()
	want := 0.005 + 0.010
	if math.Abs(float64(end)-want) > 1e-6 {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if s.Interference() != 2 {
		t.Fatal("interference not recorded")
	}
}

func TestInterferenceValidation(t *testing.T) {
	s := newServer(t, fixedApp{service: 1e-3, cf: 1}, 1, nil)
	e := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive interference accepted")
		}
	}()
	s.SetInterference(e, 0)
}

func TestDropViaArrivalHook(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	drops := 0
	s.DroppedSink = func(*sim.Engine, *workload.Request) { drops++ }
	s.Hooks = dropAllHooks{}
	r := mkReq(10*sim.Millisecond, 1)
	e.At(0, "submit", func(en *sim.Engine) { s.Submit(en, r) })
	e.RunAll()
	if !r.Dropped || s.Dropped() != 1 || drops != 1 || s.Completed() != 0 {
		t.Fatalf("drop path broken: dropped=%v n=%d sink=%d completed=%d",
			r.Dropped, s.Dropped(), drops, s.Completed())
	}
}

type dropAllHooks struct{ NoopHooks }

func (dropAllHooks) Arrival(*sim.Engine, *Worker, *workload.Request) bool { return false }

// readyRecorder records Ready timing per request.
type readyRecorder struct {
	NoopHooks
	readyAt map[uint64]sim.Time
	startAt map[uint64]sim.Time
}

func (h *readyRecorder) Ready(e *sim.Engine, _ *Worker, r *workload.Request) {
	h.readyAt[r.ID] = e.Now()
}
func (h *readyRecorder) Start(e *sim.Engine, _ *Worker, r *workload.Request) {
	h.startAt[r.ID] = e.Now()
}

func TestStage1EagerExtractionOnBusyWorker(t *testing.T) {
	// Worker busy with a 10ms request; a second request with lateness 0.2
	// arrives at t=1ms. Stage 1 must run immediately (2ms at 10ms service),
	// making features ready at t=3ms — long before the first request
	// completes — and delaying the first request by those 2ms.
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1, frac: 0.2}
	s := newServer(t, app, 1, func(*workload.Request) float64 { return 0.2 })
	rec := &readyRecorder{readyAt: map[uint64]sim.Time{}, startAt: map[uint64]sim.Time{}}
	s.Hooks = rec
	e := sim.NewEngine()
	var ends []sim.Time
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { ends = append(ends, r.End) }

	r1 := mkReq(10*sim.Millisecond, 1)
	r1.ID = 1
	r2 := mkReq(10*sim.Millisecond, 1)
	r2.ID = 2
	e.At(0, "s1", func(en *sim.Engine) { r1.Gen = en.Now(); s.Submit(en, r1) })
	e.At(0.001, "s2", func(en *sim.Engine) { r2.Gen = en.Now(); s.Submit(en, r2) })
	e.RunAll()

	if got := rec.readyAt[2]; math.Abs(float64(got)-0.003) > 1e-9 {
		t.Fatalf("r2 ready at %v, want 3ms", got)
	}
	// r1 delayed by r2's stage-1: completes at 12ms.
	if math.Abs(float64(ends[0])-0.012) > 1e-9 {
		t.Fatalf("r1 end = %v, want 12ms", ends[0])
	}
	// r2 runs its remaining 80% (8ms) after r1: end = 20ms; total work
	// conserved (2 requests × 10ms).
	if math.Abs(float64(ends[1])-0.020) > 1e-9 {
		t.Fatalf("r2 end = %v, want 20ms", ends[1])
	}
	// Measured service time of r2 stays the full 10ms thanks to the
	// stage-1 credit in Start.
	if math.Abs(float64(r2.ServiceTime())-0.010) > 1e-9 {
		t.Fatalf("r2 service = %v, want 10ms", r2.ServiceTime())
	}
}

func TestStage1OnIdleWorkerReadyMidExecution(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1, frac: 0.2}
	s := newServer(t, app, 1, func(*workload.Request) float64 { return 0.2 })
	rec := &readyRecorder{readyAt: map[uint64]sim.Time{}, startAt: map[uint64]sim.Time{}}
	s.Hooks = rec
	e := sim.NewEngine()
	r := mkReq(10*sim.Millisecond, 1)
	r.ID = 5
	e.At(0, "s", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	e.RunAll()
	if got := rec.readyAt[5]; math.Abs(float64(got)-0.002) > 1e-9 {
		t.Fatalf("ready at %v, want 2ms (20%% into execution)", got)
	}
	if math.Abs(float64(r.End)-0.010) > 1e-9 {
		t.Fatalf("end = %v, want 10ms (stage 1 folded in)", r.End)
	}
}

func TestRequestFeaturesReadyAtArrival(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	rec := &readyRecorder{readyAt: map[uint64]sim.Time{}, startAt: map[uint64]sim.Time{}}
	s.Hooks = rec
	e := sim.NewEngine()
	r1 := mkReq(10*sim.Millisecond, 1)
	r1.ID = 1
	r2 := mkReq(10*sim.Millisecond, 1)
	r2.ID = 2
	e.At(0, "s1", func(en *sim.Engine) { s.Submit(en, r1) })
	e.At(0.001, "s2", func(en *sim.Engine) { s.Submit(en, r2) })
	e.RunAll()
	if got := rec.readyAt[2]; got != 0.001 {
		t.Fatalf("request-feature ready at %v, want at arrival (1ms)", got)
	}
}

func TestEstimateRemaining(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	r := mkReq(10*sim.Millisecond, 1)
	e.At(0, "s", func(en *sim.Engine) { s.Submit(en, r) })
	var rem sim.Duration
	e.At(0.004, "check", func(en *sim.Engine) {
		rem = s.Workers()[0].EstimateRemaining(en.Now())
	})
	e.RunAll()
	if math.Abs(float64(rem)-0.006) > 1e-9 {
		t.Fatalf("remaining = %v, want 6ms", rem)
	}
	if s.Workers()[0].EstimateRemaining(e.Now()) != 0 {
		t.Fatal("idle worker should have zero remaining")
	}
}

func TestWorkConservationUnderLoad(t *testing.T) {
	// Throughput sanity: with Poisson arrivals at 60% utilization on 4
	// workers, everything completes and mean sojourn ≥ service.
	app := fixedApp{service: 2 * sim.Millisecond, cf: 0.8}
	s := newServer(t, app, 4, nil)
	e := sim.NewEngine()
	var tracker stats.LatencyTracker
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
		tracker.Add(float64(r.Sojourn()))
	}
	rps := 0.6 * 4 / 2e-3
	gen := workload.NewGenerator(app, rps, 7, s.Submit)
	gen.Start(e)
	e.Run(5)
	gen.Stop()
	e.RunAll()
	if tracker.Count() < int(0.9*rps*5) {
		t.Fatalf("only %d completions", tracker.Count())
	}
	if tracker.Mean() < 2e-3 {
		t.Fatalf("mean sojourn %v below service time", tracker.Mean())
	}
	if s.QueuedTotal() != 0 {
		t.Fatalf("queue not drained: %d", s.QueuedTotal())
	}
}

func TestServedLevelRecorded(t *testing.T) {
	app := fixedApp{service: 5 * sim.Millisecond, cf: 1}
	g := cpu.DefaultGrid()
	s := New(Config{App: app, Workers: 1, Grid: g, Power: cpu.DefaultPowerModel(g),
		Trans: cpu.TransitionModel{Min: 0, Mean: 0, Max: 0}, Seed: 1})
	e := sim.NewEngine()
	s.Workers()[0].Core().SetLevelImmediate(e, 3)
	r := mkReq(5*sim.Millisecond, 1)
	e.At(0, "s", func(en *sim.Engine) { s.Submit(en, r) })
	e.RunAll()
	if r.ServedLevel != 3 {
		t.Fatalf("served level = %d, want 3", r.ServedLevel)
	}
}

func TestNewPanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero workers accepted")
		}
	}()
	New(Config{App: fixedApp{service: 1, cf: 1}, Workers: 0})
}

// Property: under any arrival pattern and random frequency fiddling, total
// completions + drops + still-in-system equals submissions, and every
// completed request has End ≥ Start ≥ Recv ≥ Gen (modulo the stage-1
// credit, which may pull Start slightly before actual execution but never
// before Recv).
func TestConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := fixedApp{service: sim.Duration(1+rng.Float64()*5) * sim.Millisecond, cf: rng.Float64(), frac: rng.Float64() * 0.4}
		fr := app.frac
		s := newServer(t, app, 1+rng.Intn(4), func(*workload.Request) float64 { return fr })
		e := sim.NewEngine()
		completed := 0
		ok := true
		s.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
			completed++
			if r.End < r.Start || r.Start < r.Recv || r.Recv < r.Gen {
				ok = false
			}
		}
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			at := sim.Time(rng.Float64() * 0.05)
			e.At(at, "sub", func(en *sim.Engine) {
				r := app.Generate(rng)
				r.Gen = en.Now()
				s.Submit(en, r)
			})
		}
		// Random frequency changes.
		for i := 0; i < 10; i++ {
			at := sim.Time(rng.Float64() * 0.05)
			w := rng.Intn(len(s.Workers()))
			lvl := cpu.Level(rng.Intn(12))
			e.At(at, "freq", func(en *sim.Engine) {
				s.Workers()[w].Core().SetLevel(en, lvl)
			})
		}
		e.RunAll()
		return ok && completed == n && s.QueuedTotal() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: lowering frequency never makes any request finish earlier.
func TestSlowerFrequencyNeverFaster(t *testing.T) {
	prop := func(seed int64) bool {
		run := func(level cpu.Level) sim.Time {
			rng := rand.New(rand.NewSource(seed))
			app := fixedApp{service: 3 * sim.Millisecond, cf: 0.7}
			g := cpu.DefaultGrid()
			s := New(Config{App: app, Workers: 2, Grid: g, Power: cpu.DefaultPowerModel(g),
				Trans: cpu.TransitionModel{Min: 0, Mean: 0, Max: 0}, Seed: 1})
			e := sim.NewEngine()
			for _, w := range s.Workers() {
				w.Core().SetLevelImmediate(e, level)
			}
			var last sim.Time
			s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { last = r.End }
			for i := 0; i < 20; i++ {
				at := sim.Time(rng.Float64() * 0.02)
				e.At(at, "sub", func(en *sim.Engine) {
					r := app.Generate(rng)
					r.Gen = en.Now()
					s.Submit(en, r)
				})
			}
			e.RunAll()
			return last
		}
		return run(0) >= run(11)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerDelayPausesExecution(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	var end sim.Time
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { end = r.End }
	r := mkReq(10*sim.Millisecond, 1)
	e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	// Two separate 2ms delays (e.g. on-core model inferences).
	e.At(0.003, "d1", func(en *sim.Engine) { s.Workers()[0].Delay(en, 2*sim.Millisecond) })
	e.At(0.007, "d2", func(en *sim.Engine) { s.Workers()[0].Delay(en, 2*sim.Millisecond) })
	e.RunAll()
	if math.Abs(float64(end)-0.014) > 1e-9 {
		t.Fatalf("end = %v, want 14ms (10ms work + 2×2ms delays)", end)
	}
	// Delay on an idle worker is a no-op.
	s.Workers()[0].Delay(e, sim.Millisecond)
}

func TestWorkerDelayZeroOrNegativeIgnored(t *testing.T) {
	app := fixedApp{service: 5 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	e := sim.NewEngine()
	var end sim.Time
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) { end = r.End }
	r := mkReq(5*sim.Millisecond, 1)
	e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	e.At(0.001, "d", func(en *sim.Engine) {
		s.Workers()[0].Delay(en, 0)
		s.Workers()[0].Delay(en, -5)
	})
	e.RunAll()
	if math.Abs(float64(end)-0.005) > 1e-9 {
		t.Fatalf("end = %v, want 5ms", end)
	}
}

// dispatchRecorder counts how many requests start service on each worker.
type dispatchRecorder struct {
	NoopHooks
	counts map[*Worker]int
}

func (d *dispatchRecorder) Start(_ *sim.Engine, w *Worker, _ *workload.Request) {
	d.counts[w]++
}

// TestJSQTieBreakIsFair is the regression test for the dispatch-bias bug:
// pick's JSQ scan starts at the rotation pointer and ties go to the first
// worker scanned, but the pointer used to advance by one per submit
// regardless of which worker was chosen. With worker 0 held busy and
// workers 1 and 2 permanently tied at zero outstanding, the stale pointer
// parked two thirds of the traffic on worker 1. The fix advances the
// pointer past the *chosen* worker, which makes tied workers alternate.
func TestJSQTieBreakIsFair(t *testing.T) {
	app := fixedApp{service: sim.Millisecond, cf: 1}
	s := newServer(t, app, 3, nil)
	rec := &dispatchRecorder{counts: map[*Worker]int{}}
	s.Hooks = rec
	e := sim.NewEngine()

	// Pin worker 0 with a request that outlives the whole test.
	long := mkReq(100, 1)
	e.At(0, "submit-long", func(en *sim.Engine) { long.Gen = en.Now(); s.Submit(en, long) })

	// Short requests spaced far enough apart that each completes before the
	// next arrives: workers 1 and 2 are tied at zero outstanding for every
	// single dispatch decision.
	const shorts = 300
	for i := 0; i < shorts; i++ {
		r := mkReq(sim.Millisecond, 1)
		e.At(sim.Time(i+1)*0.01, "submit-short", func(en *sim.Engine) {
			r.Gen = en.Now()
			s.Submit(en, r)
		})
	}
	e.RunAll()

	ws := s.Workers()
	if got := rec.counts[ws[0]]; got != 1 {
		t.Fatalf("busy worker 0 served %d requests, want only the pinned one", got)
	}
	c1, c2 := rec.counts[ws[1]], rec.counts[ws[2]]
	if c1+c2 != shorts {
		t.Fatalf("tied workers served %d+%d, want %d total", c1, c2, shorts)
	}
	if diff := c1 - c2; diff < -2 || diff > 2 {
		t.Fatalf("tie-break bias: worker1=%d worker2=%d (want an even split)", c1, c2)
	}
}
