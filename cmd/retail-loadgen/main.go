// retail-loadgen drives an open-loop Poisson load at a retail-live
// server and prints an HDR latency report. Unlike the closed-loop client
// built into retail-live, the generator never waits for responses before
// sending the next request, so server-side queueing shows up in the
// measured tail instead of silently throttling the offered rate
// (coordinated omission).
//
// Usage:
//
//	retail-loadgen -addr 127.0.0.1:7077 -app xapian -rps 200 -duration 10s
//	retail-loadgen -selfhost -rps 140000 -conns 12    # loopback saturation demo
//	retail-loadgen -selfhost -spec slo-mix -record run.trace   # cohort schedule, recorded
//	retail-loadgen -selfhost -replay run.trace                 # same wire schedule again
//
// -selfhost starts an in-process server with a no-op executor and
// head-only decisions, making the transport — not the policy or the
// (absent) work — the measured path. With -spec the send schedule is
// pre-drawn from the cohort spec (workload.RecordTrace), so -record and
// a later -replay offer byte-identical request sequences; latency is
// then reported per SLO class.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"retail/internal/cli"
	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		addr     = flag.String("addr", "", "server address (omit with -selfhost)")
		rps      = flag.Float64("rps", 1000, "aggregate offered request rate")
		conns    = flag.Int("conns", 8, "client connections (rate splits evenly)")
		duration = flag.Duration("duration", 5*time.Second, "send window")
		drain    = flag.Duration("drain", 2*time.Second, "wait for in-flight responses after the window")
		seed     = flag.Int64("seed", 1, "generator seed")
		selfhost = flag.Bool("selfhost", false, "start an in-process no-op server and load it over loopback")
	)
	in := cli.Declare("retail-loadgen", flag.CommandLine, cli.Workload|cli.Report)
	flag.Parse()

	// Load the run inputs before any listener binds or connection dials,
	// so a bad invocation never touches the network. -spec pre-draws the
	// wire schedule; -replay sends a recorded one.
	run := in.MustLoad()
	app, trace := run.App, run.Replay
	if run.Spec != nil {
		spec := run.Spec
		if in.Given("rps") {
			// An explicit -rps rescales the cohort mix to that aggregate;
			// otherwise the spec runs at its own rates.
			spec = spec.ScaledTo(*rps)
		}
		trace = workload.RecordTrace(spec, *seed, sim.Duration(duration.Seconds()))
		if len(trace.Records) == 0 {
			in.Fail(fmt.Errorf("-spec %q produced no arrivals in %v", in.SpecName, *duration))
		}
	}

	target := *addr
	if *selfhost {
		grid := cpu.DefaultGrid()
		srv, err := live.NewServer(live.ServerConfig{
			Addr:      "127.0.0.1:0",
			Workers:   runtime.NumCPU(),
			QoS:       app.QoS(),
			Predictor: flatPredictor(1e-6),
			Backend:   live.NewMockBackend(grid),
			Exec:      func(live.Request, cpu.Level) {},
			Params:    policy.Params{Alg1: policy.Alg1Params{HeadOnly: true}},
			AppName:   app.Name(),
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.Start()
		defer srv.Close()
		target = srv.Addr()
		log.Printf("selfhost server on %s (%d workers, no-op executor)", target, runtime.NumCPU())
	}
	if target == "" {
		log.Print("need -addr or -selfhost")
		flag.Usage()
		os.Exit(2)
	}

	if trace != nil {
		if in.RecordPath != "" {
			sha, err := in.WriteRecording(trace)
			if err != nil {
				in.Fail(err)
			}
			log.Printf("recorded %s (%d records, sha256 %s)", in.RecordPath, len(trace.Records), sha)
		}
		span := time.Duration(trace.Records[len(trace.Records)-1].ArrivalNs())
		log.Printf("trace-scheduled %s: %d records over %v via %d conns",
			app.Name(), len(trace.Records), span.Round(time.Millisecond), *conns)
	} else {
		log.Printf("open-loop %s: %.0f RPS over %d conns for %v", app.Name(), *rps, *conns, *duration)
	}
	res, err := live.RunLoad(live.LoadConfig{
		Addr: target, Trace: trace, App: app,
		RPS: *rps, Conns: *conns, Duration: *duration,
		Seed: *seed, DrainTimeout: *drain,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Report())
	if in.ReportPath == "" {
		return
	}

	configHash := obs.HashConfig("loadgen", app.Name(), *rps, *conns, duration.String())
	window := duration.Seconds()
	if trace != nil {
		sha, err := trace.SHA()
		if err != nil {
			log.Fatal(err)
		}
		configHash = obs.HashConfig("loadgen-spec", app.Name(), sha, *conns)
		window = res.Elapsed.Seconds()
	}
	rep := obs.NewReport("loadgen", *seed, configHash)
	rep.Loadgen = loadgenReport(res, app, target, *conns, window)
	if err := rep.WriteFile(in.ReportPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report      %s (v%d, config %s)\n", in.ReportPath, rep.Version, rep.ConfigHash)
}

// loadgenReport renders a run as the obs report payload: overall HDR
// quantiles plus, for classed traces, latency against each class's QoS.
func loadgenReport(res *live.LoadResult, app workload.App, target string,
	conns int, window float64) *obs.LoadgenReport {
	q := func(h *stats.HDR, p float64) float64 { return time.Duration(h.Quantile(p)).Seconds() }
	lg := &obs.LoadgenReport{
		App: app.Name(), Addr: target, Conns: conns,
		Duration:   window,
		Sent:       res.Sent,
		Completed:  res.Completed,
		Dropped:    res.Dropped,
		Unanswered: res.Unanswered,
		OfferedRPS: res.OfferedRPS,
		SentRPS:    res.SentRPS,
		ElapsedS:   res.Elapsed.Seconds(),
		LatencyS: obs.LatencyQuantiles{
			Min: time.Duration(res.Latency.Min()).Seconds(),
			P50: q(&res.Latency, 0.50), P90: q(&res.Latency, 0.90), P99: q(&res.Latency, 0.99),
			P999: q(&res.Latency, 0.999), P9999: q(&res.Latency, 0.9999),
			Max: time.Duration(res.Latency.Max()).Seconds(),
		},
	}
	qos := app.QoS()
	for i := range res.Classes {
		c := &res.Classes[i]
		targetS := c.Scale * float64(qos.Latency) // sim.Duration is seconds
		tail := q(&c.Latency, qos.Percentile/100)
		lg.Classes = append(lg.Classes, obs.SLOClassLatency{
			Class: c.Class, QoSScale: c.Scale,
			Completed: c.Completed, Dropped: c.Dropped,
			P50: q(&c.Latency, 0.50), P95: q(&c.Latency, 0.95), P99: q(&c.Latency, 0.99),
			TailAtQoS: tail, QoSTarget: targetS,
			QoSMet: tail <= targetS,
		})
	}
	return lg
}

// flatPredictor is the selfhost stand-in for a trained model: a constant
// tiny service time, so decisions always land on the lowest level and
// the DVFS write coalescer elides every backend call after the first.
type flatPredictor float64

func (p flatPredictor) Predict(lvl cpu.Level, f []float64) float64 { return float64(p) }
