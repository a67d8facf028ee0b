package workload

import (
	"math"
	"math/rand"
	"sync"

	"retail/internal/sim"
)

// Generator runs a client population against one sim engine. Every
// client is an independent open-loop arrival process with a private RNG
// stream, so requests are sent regardless of the server's state
// (§VII-A); the merged stream is deterministic because the engine is
// single-threaded and FIFO-stable at equal timestamps, and every random
// draw is attributable to exactly one (client, call-index) pair. Request
// IDs are assigned globally in arrival order, Gen carries the client
// generation timestamp (t1), and SLOClass indexes the spec's class
// table. NewGenerator builds the paper's Tailbench client as the
// one-client case; NewCohortGenerator builds a Spec's population.
type Generator struct {
	// Sink receives each request at its arrival time.
	Sink func(e *sim.Engine, r *Request)
	// Pool, when set, supplies recycled Request nodes for apps that
	// implement InPlaceGenerator; the sink's owner returns finished
	// requests with Pool.Put. The pooled and unpooled paths share the RNG
	// call sequence, so enabling a pool never changes the stream — only
	// allocation counts. Apps without GenerateInto fall back to Generate.
	Pool *RequestPool

	clients []*client
	next    uint64
	// rateScale multiplies every client's instantaneous rate; load spikes
	// and chaos overload windows use it on top of the clients' own
	// arrival processes, so bursts compose with (rather than replace)
	// MMPP correlation.
	rateScale float64
	stopped   bool
}

// client is one member of the population: its own RNG, arrival-process
// state, base rate and envelope.
type client struct {
	owner    *Generator
	app      App
	inPlace  InPlaceGenerator
	rng      *rand.Rand
	proc     arrivalProcess
	baseRate float64
	envelope []EnvelopePeriod
	class    uint8
	arrive   func(*sim.Engine, any)
}

// NewGenerator returns the paper's open-loop Poisson client for one
// application at rps. It is the one-client population, seeded directly
// with rand.NewSource(seed) (no splitmix mixing), at class 0 with no
// envelope: baseRate·rateScale·EnvelopeAt(nil, t) is exactly rps and the
// RNG call order is one ExpFloat64 per gap then the app's draws, so the
// stream is bit-identical to the dedicated single-client generator this
// type replaced (TestPoissonStreamPinned).
func NewGenerator(app App, rps float64, seed int64, sink func(*sim.Engine, *Request)) *Generator {
	g := &Generator{Sink: sink, rateScale: 1}
	g.add(app, rand.New(rand.NewSource(seed)), poissonArrival{}, rps, nil, 0)
	return g
}

// NewCohortGenerator builds the population for a validated spec. seed is
// the run seed: it is mixed with the spec's own seed and each client's
// (cohort, client) index through splitmix64, so every client draws from a
// decorrelated stream and the whole run is reproducible from (spec, seed).
func NewCohortGenerator(spec *Spec, seed int64, sink func(*sim.Engine, *Request)) *Generator {
	g := &Generator{Sink: sink, rateScale: 1}
	names, _ := spec.Classes()
	classIdx := map[string]uint8{}
	for i, n := range names {
		classIdx[n] = uint8(i)
	}
	base := splitmix64(uint64(seed) ^ splitmix64(uint64(spec.Seed)))
	for ci, c := range spec.Cohorts {
		app := ByName(c.App)
		rates := clientRates(c.RPS, c.Clients, c.RateSkew)
		cohortBase := splitmix64(base + uint64(ci))
		for ki := 0; ki < c.Clients; ki++ {
			rng := rand.New(rand.NewSource(int64(splitmix64(cohortBase + uint64(ki)))))
			g.add(app, rng, newArrival(c.Arrival), rates[ki], c.Envelope, classIdx[c.Class])
		}
	}
	return g
}

func (g *Generator) add(app App, rng *rand.Rand, proc arrivalProcess, rate float64, env []EnvelopePeriod, class uint8) {
	cl := &client{owner: g, app: app, rng: rng, proc: proc, baseRate: rate, envelope: env, class: class}
	cl.inPlace, _ = app.(InPlaceGenerator)
	cl.arrive = func(en *sim.Engine, _ any) { cl.onArrival(en) }
	g.clients = append(g.clients, cl)
}

// clientRates splits a cohort's aggregate rate across clients by a Zipf
// weight (i+1)^-skew — skew 0 splits evenly, larger skews concentrate
// load on the first clients.
func clientRates(total float64, clients int, skew float64) []float64 {
	weights := make([]float64, clients)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -skew)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] = total * weights[i] / sum
	}
	return weights
}

// Start schedules every client's first arrival. Arrivals continue until
// Stop or until the engine's horizon ends.
func (g *Generator) Start(e *sim.Engine) {
	for _, cl := range g.clients {
		cl.scheduleNext(e)
	}
}

// Stop halts future arrivals (already-scheduled ones may still fire once).
func (g *Generator) Stop() { g.stopped = true }

// SetRateScale multiplies every client's instantaneous rate for
// subsequent gaps (load spikes, overload windows) without disturbing
// per-client arrival-process state.
func (g *Generator) SetRateScale(f float64) { g.rateScale = f }

func (cl *client) scheduleNext(e *sim.Engine) {
	g := cl.owner
	if g.stopped {
		return
	}
	// The envelope modulates the instantaneous rate: each gap is drawn at
	// the rate in force at its start (a piecewise-constant approximation
	// of the non-homogeneous process — exact in the limit of gaps short
	// against the envelope period, and deterministic regardless).
	rate := cl.baseRate * g.rateScale * EnvelopeAt(cl.envelope, float64(e.Now()))
	if rate <= 0 {
		return
	}
	gap := sim.Duration(cl.proc.NextGap(cl.rng, rate))
	e.AfterCall(gap, "workload.arrival", cl.arrive, nil)
}

func (cl *client) onArrival(en *sim.Engine) {
	g := cl.owner
	if g.stopped {
		return
	}
	var r *Request
	if g.Pool != nil && cl.inPlace != nil {
		r = g.Pool.Get()
		cl.inPlace.GenerateInto(r, cl.rng)
	} else {
		r = cl.app.Generate(cl.rng)
	}
	r.ID = g.next
	g.next++
	r.Gen = en.Now()
	r.SLOClass = cl.class
	if g.Sink != nil {
		g.Sink(en, r)
	}
	cl.scheduleNext(en)
}

// splitmix64 is the SplitMix64 output function — a cheap, well-mixed way
// to derive decorrelated per-client seeds from one run seed without
// importing anything.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Load calibration.

var meanServiceCache sync.Map // app name → float64 seconds

// MeanServiceAtMax estimates an application's mean intrinsic service time
// at the maximum frequency via a fixed-seed Monte Carlo draw. The estimate
// is memoized per application name.
func MeanServiceAtMax(a App) float64 {
	if v, ok := meanServiceCache.Load(a.Name()); ok {
		return v.(float64)
	}
	rng := rand.New(rand.NewSource(0x5eed))
	const n = 8192
	total := 0.0
	if ip, ok := a.(InPlaceGenerator); ok {
		var r Request
		for i := 0; i < n; i++ {
			ip.GenerateInto(&r, rng)
			total += float64(r.ServiceBase)
		}
	} else {
		for i := 0; i < n; i++ {
			total += float64(a.Generate(rng).ServiceBase)
		}
	}
	mean := total / n
	meanServiceCache.Store(a.Name(), mean)
	return mean
}

// MaxLoadRPS returns the request rate defined as the application's "100%
// load" on a server with the given worker count: the paper defines max load
// as the maximum RPS meeting QoS on the default (max-frequency) system,
// which lands at 60–80% CPU utilization for these open-loop workloads. We
// target ~72% utilization of the worker pool at max frequency.
func MaxLoadRPS(a App, workers int) float64 {
	return 0.72 * float64(workers) / MeanServiceAtMax(a)
}
