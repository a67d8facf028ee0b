// Open-loop load generation. RunClient (client.go) is a closed-loop
// client: each connection waits for a response before its next send, so
// under server slowdown the offered load collapses — coordinated
// omission. RunLoad is the open-loop complement the tail-latency
// literature calls for: every connection sends on its schedule
// regardless of outstanding responses (the server's per-connection MPSC
// response path makes pipelining possible), and latency is measured from
// the scheduled generation stamp, so queueing delay the server causes is
// in the numbers, not hidden by the generator's own backpressure.
//
// The schedule has two sources. By default each connection draws its own
// Poisson stream, lazily, so nothing is pre-drawn however high the rate.
// With a Trace, every send happens at the trace's recorded arrival offset
// (a recorded v2 file or a cohort spec drawn by workload.RecordTrace), so
// two runs against the same trace offer the same request sequence at the
// same instants — the wall-clock analogue of the simulator's
// byte-identical replay, up to scheduler jitter the clock owns — and
// latency is attributed per SLO class from the trace's class table.
package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"retail/internal/stats"
	"retail/internal/workload"
)

// LoadConfig drives RunLoad.
type LoadConfig struct {
	Addr string
	// Trace, when set, supplies the schedule: arrivals, features and SLO
	// classes. Build one with workload.RecordTrace (from a spec) or load
	// a recorded file with workload.ReadTraceFile. Records are split
	// round-robin by index across Conns; each connection keeps its
	// subset's time order. App, RPS, Duration and Seed are then unused.
	Trace *workload.Trace
	// App supplies the feature distribution for Poisson requests.
	App workload.App
	// RPS is the aggregate Poisson rate, split evenly across Conns.
	RPS      float64
	Conns    int // default 8
	Duration time.Duration
	Seed     int64
	// DrainTimeout bounds the wait for in-flight responses after the last
	// send (0 = 2s). Responses missing when it expires count as
	// Unanswered.
	DrainTimeout time.Duration
}

// ClassLoadStats is one SLO class's client-observed share of a run.
type ClassLoadStats struct {
	Class     string
	Scale     float64 // the class's QoS′ multiplier from the trace header
	Completed int
	Dropped   int
	Latency   stats.HDR
}

// LoadResult aggregates one open-loop run.
type LoadResult struct {
	Sent       int
	Completed  int
	Dropped    int // shed or deadline-dropped by the server
	Unanswered int // no response within the drain timeout
	// Elapsed is the send-phase wall time (the slowest connection's).
	Elapsed time.Duration
	// OfferedRPS is the configured rate (a trace's record count over its
	// span); SentRPS what the generator actually achieved (they diverge
	// only when the generator itself cannot keep schedule, not when the
	// server is slow).
	OfferedRPS float64
	SentRPS    float64
	// Latency holds client-observed sojourn (response arrival − scheduled
	// generation) in nanoseconds for completed requests only.
	Latency stats.HDR
	// Classes follows the trace header's class table order; empty for
	// Poisson runs and for traces without a class table.
	Classes []ClassLoadStats
}

// Report formats the run as a compact HDR latency report, one line
// overall plus one per SLO class.
func (r *LoadResult) Report() string {
	d := func(ns int64) time.Duration { return time.Duration(ns) }
	out := fmt.Sprintf(`sent        %d in %v (offered %.0f RPS, achieved %.0f RPS)
completed   %d   dropped %d   unanswered %d
latency     min %v  p50 %v  p90 %v  p99 %v  p99.9 %v  p99.99 %v  max %v`,
		r.Sent, r.Elapsed.Round(time.Millisecond), r.OfferedRPS, r.SentRPS,
		r.Completed, r.Dropped, r.Unanswered,
		d(r.Latency.Min()), d(r.Latency.Quantile(0.50)), d(r.Latency.Quantile(0.90)),
		d(r.Latency.Quantile(0.99)), d(r.Latency.Quantile(0.999)),
		d(r.Latency.Quantile(0.9999)), d(r.Latency.Max()))
	for i := range r.Classes {
		c := &r.Classes[i]
		out += fmt.Sprintf("\nclass %-12s scale %.2f  completed %d  dropped %d  p50 %v  p99 %v  max %v",
			c.Class, c.Scale, c.Completed, c.Dropped,
			d(c.Latency.Quantile(0.50)), d(c.Latency.Quantile(0.99)), d(c.Latency.Max()))
	}
	return out
}

// schedule yields one connection's sends in time order: it fills req's
// ID, features and class and returns the send offset from the run start,
// or false once the connection's schedule is exhausted.
type schedule func(req *Request) (time.Duration, bool)

// poissonSchedule draws connection connIdx's Poisson stream at rps, one
// gap per send, until window closes. IDs are connIdx<<32 | seq.
func poissonSchedule(app workload.App, rps float64, seed int64, connIdx uint64, window time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	// Pre-generate a feature cycle: the send path must never stall on
	// workload sampling, or generator overhead masquerades as latency.
	const cycle = 512
	feats := make([][]float64, cycle)
	for i := range feats {
		feats[i] = append([]float64(nil), app.Generate(rng).Features...)
	}
	var at time.Duration
	var seq uint64
	return func(req *Request) (time.Duration, bool) {
		at += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		if at > window {
			return 0, false
		}
		seq++
		req.ID = connIdx<<32 | seq
		req.Features = feats[seq%cycle]
		return at, true
	}
}

// traceSchedule walks records connIdx, connIdx+conns, … of tr. The ID is
// 1 + record index, so the receiver's class lookup is a table read.
func traceSchedule(tr *workload.Trace, connIdx, conns int) schedule {
	i := connIdx
	return func(req *Request) (time.Duration, bool) {
		if i >= len(tr.Records) {
			return 0, false
		}
		rec := &tr.Records[i]
		req.ID = uint64(i) + 1
		req.Features = rec.Features
		req.Class = rec.Class
		i += conns
		return time.Duration(rec.ArrivalNs()), true
	}
}

// connLoad is one connection's private tally, merged after the run.
type connLoad struct {
	sent, completed, dropped int
	sendDur                  time.Duration
	lat                      stats.HDR
	classes                  []ClassLoadStats
	err                      error
}

// RunLoad executes one open-loop run and blocks until the last send plus
// drain completes.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 8
	}
	res := &LoadResult{}
	tr := cfg.Trace
	if tr != nil {
		if len(tr.Records) == 0 {
			return nil, fmt.Errorf("live: LoadConfig.Trace has no records")
		}
		cfg.Conns = min(cfg.Conns, len(tr.Records))
		if span := float64(tr.Records[len(tr.Records)-1].Arrival); span > 0 {
			res.OfferedRPS = float64(len(tr.Records)) / span
		}
		for i, name := range tr.Header.Classes {
			scale := 1.0
			if i < len(tr.Header.Scales) {
				scale = tr.Header.Scales[i]
			}
			res.Classes = append(res.Classes, ClassLoadStats{Class: name, Scale: scale})
		}
	} else {
		if cfg.App == nil {
			return nil, fmt.Errorf("live: LoadConfig needs an App or a Trace")
		}
		if cfg.RPS <= 0 || cfg.Duration <= 0 {
			return nil, fmt.Errorf("live: LoadConfig needs positive RPS and Duration")
		}
		res.OfferedRPS = cfg.RPS
	}
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 2 * time.Second
	}

	states := make([]*connLoad, cfg.Conns)
	scheds := make([]schedule, cfg.Conns)
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
		states[c] = &connLoad{classes: make([]ClassLoadStats, len(res.Classes))}
		if tr != nil {
			scheds[c] = traceSchedule(tr, c, cfg.Conns)
		} else {
			scheds[c] = poissonSchedule(cfg.App, cfg.RPS/float64(cfg.Conns),
				cfg.Seed*131+int64(c), uint64(c), cfg.Duration)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			runConnLoad(conns[idx], states[idx], scheds[idx], tr, start, drain)
		}(c)
	}
	wg.Wait()

	for _, st := range states {
		if st.err != nil {
			return nil, st.err
		}
		res.Sent += st.sent
		res.Completed += st.completed
		res.Dropped += st.dropped
		if st.sendDur > res.Elapsed {
			res.Elapsed = st.sendDur
		}
		res.Latency.Merge(&st.lat)
		for i := range res.Classes {
			res.Classes[i].Completed += st.classes[i].Completed
			res.Classes[i].Dropped += st.classes[i].Dropped
			res.Classes[i].Latency.Merge(&st.classes[i].Latency)
		}
	}
	res.Unanswered = res.Sent - res.Completed - res.Dropped
	if res.Elapsed > 0 {
		res.SentRPS = float64(res.Sent) / res.Elapsed.Seconds()
	}
	return res, nil
}

// classOf maps a response ID back to its record's SLO-class index in
// tr's class table, or −1 when the ID names no classed record (always,
// for Poisson runs, where tr is nil).
func classOf(tr *workload.Trace, id uint64) int {
	if tr == nil || id == 0 || id > uint64(len(tr.Records)) {
		return -1
	}
	if c := int(tr.Records[id-1].Class); c < len(tr.Header.Classes) {
		return c
	}
	return -1
}

// runConnLoad drives one connection: a sender pacing the schedule and a
// receiver recording latencies, concurrent so responses drain while
// requests pipeline.
func runConnLoad(conn net.Conn, st *connLoad, next schedule, tr *workload.Trace,
	start time.Time, drain time.Duration) {
	// finalSent, once nonzero, tells the receiver how many responses to
	// expect; answered is the shared tally both sides consult so the
	// drain ends as soon as the last response lands (the rest of st is
	// receiver-private until the recvDone join below).
	var finalSent, answered atomic.Int64
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		dec := json.NewDecoder(conn)
		for {
			var resp Response
			if err := dec.Decode(&resp); err != nil {
				return // deadline, close, or peer gone ends the drain
			}
			cls := classOf(tr, resp.ID)
			if resp.Dropped {
				st.dropped++
				if cls >= 0 {
					st.classes[cls].Dropped++
				}
			} else {
				st.completed++
				soj := time.Now().UnixNano() - resp.GenNs
				st.lat.Record(soj)
				if cls >= 0 {
					st.classes[cls].Completed++
					st.classes[cls].Latency.Record(soj)
				}
			}
			if n, fs := answered.Add(1), finalSent.Load(); fs > 0 && n >= fs {
				return
			}
		}
	}()
	// Tear-down in all paths: close the conn (unblocks a decode in
	// flight), then join the receiver so the caller may read st safely.
	defer func() { conn.Close(); <-recvDone }()

	bw := bufio.NewWriterSize(conn, 16<<10)
	enc := json.NewEncoder(bw)
	req := Request{}
	for {
		at, ok := next(&req)
		if !ok {
			break
		}
		// Absolute schedule: oversleep on one gap is repaid by sending
		// immediately while behind, so the offered rate holds.
		target := start.Add(at)
		if d := time.Until(target); d > 0 {
			// Ahead of schedule: push buffered requests out before
			// sleeping so nothing lingers client-side; batching then only
			// happens while catching up, where throughput is what matters.
			if err := bw.Flush(); err != nil {
				st.err = fmt.Errorf("live: flush: %w", err)
				return
			}
			time.Sleep(d)
		}
		req.GenNs = target.UnixNano() // scheduled time: no coordinated omission
		if err := enc.Encode(&req); err != nil {
			st.err = fmt.Errorf("live: send: %w", err)
			return
		}
		st.sent++
	}
	if err := bw.Flush(); err != nil {
		st.err = fmt.Errorf("live: flush: %w", err)
		return
	}
	st.sendDur = time.Since(start)
	// Drain: stop as soon as every response landed, or cut the read at
	// the drain deadline.
	finalSent.Store(int64(st.sent))
	if answered.Load() >= int64(st.sent) {
		return
	}
	conn.SetReadDeadline(time.Now().Add(drain))
	<-recvDone
}
