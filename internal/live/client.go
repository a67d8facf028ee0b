package live

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"retail/internal/cpu"
	"retail/internal/fault"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// DemoExecutor builds an Executor that simulates request work by sleeping
// for the request's modeled service time at the backend's mocked
// frequency. On real hardware with SysfsBackend, the application's own
// work replaces this and the frequency change is physical.
func DemoExecutor(app workload.App, backend *MockBackend, timeScale float64) Executor {
	grid := backend.Grid()
	if timeScale <= 0 {
		timeScale = 1
	}
	_ = backend // the decided level arrives as an argument
	return func(r Request, lvl cpu.Level) {
		// Rebuild the service model from the request features via a
		// surrogate request; the demo keeps the feature→latency mapping of
		// the synthetic workload.
		sr := &workload.Request{
			Features:    r.Features,
			ServiceBase: demoBase(app, r.Features),
			ComputeFrac: 0.8,
		}
		d := sr.ServiceAt(grid.Freq(grid.Clamp(lvl)), grid.MaxFreq(), 1)
		time.Sleep(time.Duration(float64(d) * 1e9 * timeScale))
	}
}

// demoBase derives an intrinsic service time from features with the
// workload's published ground-truth model where available.
func demoBase(app workload.App, features []float64) sim.Duration {
	switch app.Name() {
	case "xapian":
		idx := workload.FeatureIndex(app, "doc_count")
		return sim.Duration(workload.XapianServiceMs(features[idx]) * 1e-3)
	case "moses":
		idx := workload.FeatureIndex(app, "word_count")
		return sim.Duration((1.8 + 0.58*features[idx]) * 1e-3)
	default:
		return sim.Duration(1e-3)
	}
}

// ClientConfig drives a load test against a live server. RunClient is
// closed-loop per connection: each connection waits for its response
// before the next send (RunLoad is the open-loop generator).
type ClientConfig struct {
	Addr     string
	App      workload.App
	RPS      float64
	Duration time.Duration
	Conns    int
	Seed     int64
	// TimeScale must match the executor's so client-side pacing aligns.
	TimeScale float64
	// MaxRetries bounds how often a shed (Dropped) response is retried
	// before the request counts as lost. 0 selects the default (3);
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the initial retry delay, doubling per attempt with
	// ±50% deterministic jitter so synchronized clients do not re-arrive
	// in lockstep (0 = 2ms, scaled by TimeScale).
	RetryBackoff time.Duration
	// Burst, when non-nil, multiplies the arrival rate by Burst.Factor
	// between Burst.From and Burst.Until seconds into the run — the
	// overload window of the chaos plans.
	Burst *fault.Burst
}

// ClientResult aggregates client-observed latencies and the degradation
// interplay: how many sends were shed, retried, and finally lost.
type ClientResult struct {
	Sent, Completed int
	// Retries counts re-sends after a shed response; Lost counts requests
	// abandoned after the retry budget (they appear in Sent but not in
	// Completed and contribute no latency sample).
	Retries, Lost int
	P50, P95, P99 time.Duration
	Mean          time.Duration
}

// RunClient sends Poisson-spaced requests over a small connection pool and
// measures sojourn times client-side (t3 − t1, §V-C). Shed responses
// (Dropped) are retried with jittered exponential backoff up to the retry
// budget; the latency sample for a retried request spans from its FIRST
// send, so shedding shows up as tail latency, not as silent loss. A
// connection that fails to send or receive ends the run: RunClient stops
// sending and returns that error.
func RunClient(cfg ClientConfig) (*ClientResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	backoff0 := cfg.RetryBackoff
	if backoff0 <= 0 {
		backoff0 = time.Duration(float64(2*time.Millisecond) * cfg.TimeScale)
	}

	// Dial every connection before starting any worker: a failed dial then
	// has only the connections already opened to close.
	conns := make([]net.Conn, cfg.Conns)
	for c := range conns {
		conn, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			for _, open := range conns[:c] {
				open.Close()
			}
			return nil, fmt.Errorf("live: dial: %w", err)
		}
		conns[c] = conn
	}

	type job struct{ req Request }
	jobs := make(chan job, 1024)
	var mu sync.Mutex
	var lat stats.LatencyTracker
	retries, lost := 0, 0
	// The first connection error ends the run: failed stops the producer,
	// and RunClient returns the error.
	var connErr error
	failed := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if connErr == nil {
			connErr = err
			close(failed)
		}
	}

	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func(conn net.Conn, connIdx int) {
			defer wg.Done()
			defer conn.Close()
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(conn)
			// Per-conn RNG: jitter stays deterministic for a fixed seed
			// without contending on a shared source.
			jrng := rand.New(rand.NewSource(cfg.Seed*31 + int64(connIdx)))
			for j := range jobs {
				first := time.Now().UnixNano()
				backoff := backoff0
				for attempt := 0; ; attempt++ {
					j.req.GenNs = time.Now().UnixNano()
					if err := enc.Encode(j.req); err != nil {
						fail(fmt.Errorf("live: send: %w", err))
						return
					}
					var resp Response
					if err := dec.Decode(&resp); err != nil {
						fail(fmt.Errorf("live: receive: %w", err))
						return
					}
					mu.Lock()
					switch {
					case !resp.Dropped:
						lat.Add(float64(resp.EndNs-first) / 1e9)
					case attempt >= maxRetries:
						lost++
					default:
						retries++
					}
					mu.Unlock()
					if !resp.Dropped || attempt >= maxRetries {
						break
					}
					// ±50% jitter so synchronized clients desynchronize.
					jit := 0.5 + jrng.Float64()
					time.Sleep(time.Duration(float64(backoff) * jit))
					backoff *= 2
				}
			}
		}(conn, c)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	sent := 0
	var id uint64
produce:
	for time.Now().Before(deadline) {
		rps := cfg.RPS
		if b := cfg.Burst; b != nil && b.Factor > 0 {
			// Burst windows are expressed on the canonical timeline;
			// TimeScale maps them onto the wall clock.
			el := time.Since(start).Seconds() / cfg.TimeScale
			if el >= b.From && el < b.Until {
				rps *= b.Factor
			}
		}
		gap := time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		time.Sleep(gap)
		r := cfg.App.Generate(rng)
		id++
		select {
		case jobs <- job{req: Request{ID: id, Features: r.Features}}:
			sent++
		case <-failed:
			break produce
		}
	}
	close(jobs)
	wg.Wait()
	if connErr != nil {
		return nil, connErr
	}

	res := &ClientResult{Sent: sent, Completed: lat.Count(), Retries: retries, Lost: lost}
	if lat.Count() > 0 {
		qs := lat.Quantiles(0.50, 0.95, 0.99)
		d := func(s float64) time.Duration { return time.Duration(s * 1e9) }
		res.P50, res.P95, res.P99, res.Mean = d(qs[0]), d(qs[1]), d(qs[2]), d(lat.Mean())
	}
	return res, nil
}
