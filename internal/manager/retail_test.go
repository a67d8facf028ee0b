package manager

import (
	"math"
	"math/rand"
	"testing"

	"retail/internal/cpu"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// A 10ms-flat request stream with a generous 100ms QoS: Algorithm 1 must
// pick the minimum frequency, because even at 1.0 GHz a lone request's
// sojourn (21ms) is far under target.
func TestReTailPicksMinimumFrequencyWithSlack(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 100e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "sub", func(*sim.Engine) { rig.submit(0) })
	rig.e.Run(0.5)
	w := rig.srv.Workers()[0]
	if got := w.Core().TargetLevel(); got != 0 {
		t.Fatalf("target level = %d, want 0 (max slack)", got)
	}
	if m.Decisions() == 0 || m.Inferences() == 0 {
		t.Fatal("decision accounting missing")
	}
}

// A tight QoS forces the top frequency.
func TestReTailPicksMaxFrequencyWhenTight(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 10.2e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "sub", func(*sim.Engine) { rig.submit(0) })
	rig.e.Run(0.5)
	if got := rig.srv.Workers()[0].Core().TargetLevel(); got != rig.grid.MaxLevel() {
		t.Fatalf("target level = %d, want max", got)
	}
}

// Algorithm 1's inner loop: queued requests' deadlines must constrain the
// head's frequency. A head alone could crawl; with three requests queued
// behind it, their accumulated queueing delay forces a boost.
func TestReTailQueuePropagatesToHeadFrequency(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 45e-3, Percentile: 99}}
	aloneLevel := func(queued int) cpu.Level {
		rig := newRig(t, app, 1)
		m := NewReTail(app.QoS(), rig.retailConfig())
		m.Attach(rig.e, rig.srv)
		rig.e.At(0, "sub", func(*sim.Engine) {
			for i := 0; i <= queued; i++ {
				rig.submit(0)
			}
		})
		// Sample the head's target shortly after decisions land.
		var lvl cpu.Level
		rig.e.At(0.002, "check", func(*sim.Engine) {
			lvl = rig.srv.Workers()[0].Core().TargetLevel()
		})
		rig.e.Run(0.5)
		return lvl
	}
	if solo, loaded := aloneLevel(0), aloneLevel(3); loaded <= solo {
		t.Fatalf("queued deadlines did not raise head frequency: solo=%d loaded=%d", solo, loaded)
	}
}

// The frequency predictor differentiates per request: with a generous QoS,
// short requests run slower than long ones is NOT the goal — rather, long
// requests get at least as high a frequency as short ones under the same
// queue state (they have less slack per unit of work).
func TestReTailDifferentiatesRequests(t *testing.T) {
	app := varApp{base: 2e-3, slope: 1e-3, spread: 20, qos: workload.QoS{Latency: 25e-3, Percentile: 99}}
	levelFor := func(x float64) cpu.Level {
		rig := newRig(t, app, 1)
		m := NewReTail(app.QoS(), rig.retailConfig())
		m.Attach(rig.e, rig.srv)
		rig.e.At(0, "sub", func(*sim.Engine) { rig.submit(x) })
		var lvl cpu.Level
		rig.e.At(0.001, "check", func(*sim.Engine) {
			lvl = rig.srv.Workers()[0].Core().TargetLevel()
		})
		rig.e.Run(0.5)
		return lvl
	}
	short := levelFor(1) // 3ms of work, 25ms budget → crawl
	long := levelFor(19) // 21ms of work, 25ms budget → hurry
	if short >= long {
		t.Fatalf("short request level %d ≥ long request level %d", short, long)
	}
	if short != 0 {
		t.Fatalf("short request should run at the floor, got %d", short)
	}
}

// The latency monitor: sustained violations shrink QoS′; sustained slack
// relaxes it.
func TestReTailMonitorAdjustsQoSPrime(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 50e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	// Inject fake completions above target: the monitor must cut QoS′.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 5e-3
		rig.e.At(at, "fake", func(en *sim.Engine) {
			m.mon.Observe(float64(en.Now()), 80e-3) // 1.6× target
		})
	}
	rig.e.Run(1.0)
	if m.QoSPrime() >= app.qos.Latency {
		t.Fatalf("QoS′ = %v not reduced under violations", m.QoSPrime())
	}
	violated := m.QoSPrime()
	// Now sustained slack: QoS′ must recover upward (rate-limited).
	for i := 0; i < 4000; i++ {
		at := rig.e.Now() + sim.Time(i)*5e-3
		rig.e.At(at, "fake2", func(en *sim.Engine) {
			m.mon.Observe(float64(en.Now()), 10e-3) // 0.2× target
		})
	}
	rig.e.Run(rig.e.Now() + 21)
	if m.QoSPrime() <= violated {
		t.Fatalf("QoS′ = %v did not relax from %v under slack", m.QoSPrime(), violated)
	}
}

// TestReTailMonitorRecoversAfterBurst: the sim-side regression for the
// monitor unification. Historically only the live runtime pruned stale
// samples by age; the simulator's window could keep a drained burst's
// violations forever, so QoS′ could only ratchet down. With the shared
// policy.Monitor both runtimes age-prune (TestLiveMonitorRecoversAfterBurst
// is the wall-clock twin; TestMonitorBurstRecovery pins the core itself).
func TestReTailMonitorRecoversAfterBurst(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 50e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	// A latency burst: 100 completions at 3× target inside 0.2 s.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 2e-3
		rig.e.At(at, "burst", func(en *sim.Engine) {
			m.mon.Observe(float64(en.Now()), 150e-3)
		})
	}
	rig.e.Run(0.5)
	hurt := m.QoSPrime()
	if hurt >= app.qos.Latency {
		t.Fatalf("setup: QoS′ = %v not cut by the burst", hurt)
	}
	// The burst drains; healthy traffic flows. The burst samples age past
	// the 500 ms monitor span and must be pruned, letting QoS′ relax.
	for i := 0; i < 4000; i++ {
		at := rig.e.Now() + sim.Time(i)*5e-3
		rig.e.At(at, "healthy", func(en *sim.Engine) {
			m.mon.Observe(float64(en.Now()), 15e-3) // 0.3× target
		})
	}
	rig.e.Run(rig.e.Now() + 21)
	if m.QoSPrime() <= hurt {
		t.Fatalf("QoS′ stuck at %v after the burst drained (want recovery above %v)",
			m.QoSPrime(), hurt)
	}
}

// End-to-end QoS + savings on a bursty stream.
func TestReTailMeetsQoSAndSavesPower(t *testing.T) {
	app := varApp{base: 2e-3, slope: 0.5e-3, spread: 20, cf: 0.8, qos: workload.QoS{Latency: 30e-3, Percentile: 99}}
	run := func(mk func(rig *testRig) Manager) (powerW float64, p99 float64) {
		rig := newRig(t, app, 4)
		m := mk(rig)
		m.Attach(rig.e, rig.srv)
		var lat []float64
		rig.srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
			lat = append(lat, float64(r.Sojourn()))
		}
		gen := workload.NewGenerator(app, 0.5*4/7e-3, 11, rig.srv.Submit)
		gen.Start(rig.e)
		rig.e.At(1, "reset", func(en *sim.Engine) { rig.srv.Socket.ResetEnergy(en.Now()) })
		rig.e.Run(8)
		gen.Stop()
		if len(lat) < 1000 {
			t.Fatalf("too few completions: %d", len(lat))
		}
		// p99 over the measured tail.
		cp := append([]float64(nil), lat...)
		return rig.srv.Socket.AveragePowerW(rig.e.Now()), percentile(cp, 99)
	}
	retailP, retailTail := run(func(rig *testRig) Manager { return NewReTail(app.QoS(), rig.retailConfig()) })
	maxP, _ := run(func(*testRig) Manager { return NewMaxFreq() })
	if retailTail > float64(app.qos.Latency) {
		t.Fatalf("ReTail p99 = %v exceeds QoS %v", retailTail, app.qos.Latency)
	}
	if retailP >= maxP {
		t.Fatalf("ReTail power %v ≥ max-frequency power %v", retailP, maxP)
	}
}

func percentile(xs []float64, p float64) float64 {
	// local helper to avoid importing stats in the test twice
	n := len(xs)
	if n == 0 {
		return 0
	}
	// insertion-free: simple selection via sort
	for i := 1; i < n; i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	idx := int(p / 100 * float64(n-1))
	return xs[idx]
}

// Online retraining: after interference doubles service times, the drift
// detector fires, the model is refit from post-drift samples, and
// prediction error recovers (the Fig 14 loop in miniature).
func TestReTailDriftRetrain(t *testing.T) {
	app := varApp{base: 5e-3, slope: 0.5e-3, spread: 10, qos: workload.QoS{Latency: 40e-3, Percentile: 99}}
	rig := newRig(t, app, 2)
	cfg := rig.retailConfig()
	cfg.RetrainLatency = 20 * sim.Millisecond
	m := NewReTail(app.QoS(), cfg)
	// Healthy baseline as calibration would set it.
	m.SetDriftBaseline(0.005)
	m.Attach(rig.e, rig.srv)
	gen := workload.NewGenerator(app, 0.5*2/7.5e-3, 13, rig.srv.Submit)
	gen.Start(rig.e)
	rig.e.At(2, "interfere", func(en *sim.Engine) { rig.srv.SetInterference(en, 1.6) })
	rig.e.Run(8)
	gen.Stop()
	if m.Retrains() == 0 {
		t.Fatal("interference did not trigger a retrain")
	}
	// 1.6× interference at 50% load pushes utilization to ~80%, so the
	// latency monitor correctly drives cores toward max frequency (the
	// paper's Fig 14: "cores spend more time at higher frequencies to
	// combat the reduced resources"). The refit model must therefore track
	// the inflated service times at the level live traffic exercised —
	// max — where the truth is 1.6 × (base + slope·x).
	pred := m.Model().Predict(rig.grid.MaxLevel(), []float64{5})
	want := (5e-3 + 0.5e-3*5) * 1.6
	if math.Abs(pred-want)/want > 0.2 {
		t.Fatalf("post-retrain prediction %v, want ≈%v", pred, want)
	}
}

func TestCleanSample(t *testing.T) {
	r := &workload.Request{Start: 0, End: 10e-3}
	if !cleanSample(r) {
		t.Fatal("no-shift request not clean")
	}
	r.LevelShifts = 1
	r.LastLevelShift = 1e-3 // within first 15%
	if !cleanSample(r) {
		t.Fatal("early-shift request should be clean")
	}
	r.LastLevelShift = 8e-3 // late boost
	if cleanSample(r) {
		t.Fatal("late-shift request marked clean")
	}
	degenerate := &workload.Request{Start: 5, End: 5, LevelShifts: 1}
	if cleanSample(degenerate) {
		t.Fatal("zero-duration request marked clean")
	}
}

// Stage-1 split installed from selected feature lateness.
func TestReTailInstallsStage1Split(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, lateness: 0.2, qos: workload.QoS{Latency: 100e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	// Two requests: the second's Ready must fire ≈ stage-1 time after its
	// arrival, not after the first completes.
	var readyAt sim.Time
	prev := rig.srv.Hooks
	rig.srv.Hooks = &readyInterceptor{inner: prev, at: &readyAt}
	rig.e.At(0, "s1", func(*sim.Engine) { rig.submit(0) })
	var second *workload.Request
	rig.e.At(0.001, "s2", func(*sim.Engine) { second = rig.submit(0) })
	rig.e.Run(0.5)
	_ = second
	// Stage 1 is 20% of the newcomer's service at the core's effective
	// frequency (up to 21ms at the grid floor): ready must land well
	// before the head's completion, i.e. within ≈ 1ms + 0.2·21ms.
	if readyAt == 0 || readyAt > 0.008 {
		t.Fatalf("stage-1 ready at %v; split not installed", readyAt)
	}
}

type readyInterceptor struct {
	inner interface {
		Arrival(*sim.Engine, *server.Worker, *workload.Request) bool
		Ready(*sim.Engine, *server.Worker, *workload.Request)
		Start(*sim.Engine, *server.Worker, *workload.Request)
		Complete(*sim.Engine, *server.Worker, *workload.Request)
	}
	at   *sim.Time
	seen int
}

func (h *readyInterceptor) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	return h.inner.Arrival(e, w, r)
}
func (h *readyInterceptor) Ready(e *sim.Engine, w *server.Worker, r *workload.Request) {
	h.seen++
	if h.seen == 2 && *h.at == 0 {
		*h.at = e.Now()
	}
	h.inner.Ready(e, w, r)
}
func (h *readyInterceptor) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	h.inner.Start(e, w, r)
}
func (h *readyInterceptor) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	h.inner.Complete(e, w, r)
}

// TestRetailMemoSlotLifecycle runs ReTail over pooled requests, as the
// fleet does: the slots in use are exactly those held by in-flight
// requests, no two requests share one, a completed request holds none,
// and a recycled Request starts from a fresh, unready slot with none of
// its predecessor's predictions.
func TestRetailMemoSlotLifecycle(t *testing.T) {
	app := varApp{base: 2e-3, slope: 0.2e-3, spread: 20, qos: workload.QoS{Latency: 30e-3, Percentile: 99}}
	rig := newRig(t, app, 2)
	m := NewReTail(app.QoS(), rig.retailConfig())
	m.Attach(rig.e, rig.srv)
	pool := &workload.RequestPool{}
	inflight := map[*workload.Request]bool{}
	rig.srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
		if r.MemoSlot != 0 {
			t.Fatalf("completed request %d still holds slot %d", r.ID, r.MemoSlot)
		}
		delete(inflight, r)
		pool.Put(r)
	}
	rng := rand.New(rand.NewSource(3))
	var id uint64
	recycled := 0
	var arrive func(*sim.Engine)
	arrive = func(en *sim.Engine) {
		r := pool.Get()
		if cap(r.Features) > 0 {
			recycled++
		}
		id++
		x := float64(rng.Intn(app.spread))
		r.ID, r.App, r.Gen, r.ComputeFrac = id, app.Name(), en.Now(), 1
		r.Features = append(r.Features, x)
		r.ServiceBase = sim.Duration(app.base + app.slope*x)
		inflight[r] = true
		rig.srv.Submit(en, r)
		en.After(sim.Duration(rng.ExpFloat64()*2.5e-3), "arrive", arrive)
	}
	rig.e.At(0, "arrive", arrive)
	rig.e.Run(2)
	if recycled == 0 || len(inflight) == 0 {
		t.Fatalf("run too small to check: %d recycled, %d in flight", recycled, len(inflight))
	}
	slots := map[int32]bool{}
	for r := range inflight {
		if r.MemoSlot > 0 {
			if slots[r.MemoSlot] {
				t.Fatalf("in-flight request %d shares slot %d", r.ID, r.MemoSlot)
			}
			slots[r.MemoSlot] = true
		}
	}
	if inUse := len(m.memo) - len(m.memoFree); inUse != len(slots) || inUse == 0 {
		t.Fatalf("%d memo slots in use, %d held by the %d requests in flight", inUse, len(slots), len(inflight))
	}

	// A request completes ready with memoized predictions; the pool hands
	// its node to the next arrival, which must see none of that state.
	app.lateness = 0.5 // unready requests read their feature as zero
	idle := newRig(t, app, 1)
	late := NewReTail(app.QoS(), idle.retailConfig())
	late.Attach(idle.e, idle.srv)
	w := idle.srv.Workers()[0]
	r := pool.Get()
	r.ID, r.Features, r.ServiceBase, r.ComputeFrac = 1, append(r.Features, 7), 10e-3, 1
	late.Ready(idle.e, w, r)
	late.peekPredict(0, r)
	slot := r.MemoSlot
	late.Complete(idle.e, w, r)
	pool.Put(r)
	next := pool.Get()
	if next != r || next.MemoSlot != 0 {
		t.Fatalf("pool returned %p with slot %d, want the recycled %p with none", next, next.MemoSlot, r)
	}
	next.ID, next.Features, next.ServiceBase, next.ComputeFrac = 2, append(next.Features, 3), 10e-3, 1
	ent := late.entryFor(next)
	if next.MemoSlot != slot {
		t.Fatalf("successor got slot %d, want the freed slot %d", next.MemoSlot, slot)
	}
	if ent.ready || ent.feats[0] != 0 || !math.IsNaN(ent.vals[0]) {
		t.Fatalf("successor inherited state: ready=%v features=%v vals[0]=%v", ent.ready, ent.feats, ent.vals[0])
	}
}
