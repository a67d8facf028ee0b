// Replay: the production calibration path. Instead of a synthetic
// workload model, record (features, service time) from live traffic as
// a v2 trace and drive the whole ReTail pipeline — feature selection,
// per-frequency regression, power management — from the recorded trace.
// The fitted model is also saved and reloaded, as a deployment would do
// across restarts.
//
//	go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"retail/internal/core"
	"retail/internal/predict"
	"retail/internal/sim"
	"retail/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "retail-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Record a trace from the running service (here: the synthetic
	//    Moses population stands in for production traffic) and persist
	//    it in the v2 trace format.
	src := workload.RecordTrace(workload.BuiltinSpec("steady-poisson").ScaledTo(1000), 42, 5)
	tracePath := filepath.Join(dir, "moses.trace")
	if err := src.WriteFile(tracePath); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(tracePath)
	fmt.Printf("recorded %d requests to %s (%d bytes)\n", len(src.Records), tracePath, st.Size())

	// 2. Read the trace back and build a replay workload from it.
	loaded, err := workload.ReadTraceFile(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	app, err := workload.NewReplayApp("moses-trace", loaded)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Calibrate from the replay and persist the fitted model.
	platform := core.DefaultPlatform().WithWorkers(8)
	cal, err := core.Calibrate(app, platform, 1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cal.Model.Save(&buf); err != nil {
		log.Fatal(err)
	}
	reloaded, err := predict.LoadLinear(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	met, _ := predict.Evaluate(reloaded, cal.Training.All())
	fmt.Printf("model fitted from trace: RMSE/QoS %.2f%% (persisted as %d bytes of JSON)\n",
		met.RMSE/float64(app.QoS().Latency)*100, buf.Len())

	// 4. Run ReTail against the replayed traffic.
	rps := core.CalibrateMaxLoad(app, platform, 1) * 0.6
	dur := core.RecommendedDuration(app, rps)
	rt, err := core.Run(core.RunConfig{App: app, Platform: platform, Manager: cal.NewReTail(),
		RPS: rps, Warmup: dur / 5, Duration: dur, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	mx, err := core.Run(core.RunConfig{App: app, Platform: platform, Manager: cal.NewMaxFreq(),
		RPS: rps, Warmup: dur / 5, Duration: dur, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed at %.0f RPS for %v:\n", rps, dur)
	fmt.Printf("  maxfreq: %5.1f W  p99 %v\n", mx.AvgPowerW, sim.Time(mx.TailAtQoSPct))
	fmt.Printf("  retail:  %5.1f W  p99 %v  QoS met %v  (saving %.1f%%)\n",
		rt.AvgPowerW, sim.Time(rt.TailAtQoSPct), rt.QoSMet,
		(1-rt.AvgPowerW/mx.AvgPowerW)*100)
}
