// Command retail-chaos replays named fault plans against the ReTail
// runtime and prints a degradation report: what was injected, what the
// recovery machinery did about it (retries, fallback pins, sheds,
// deadline drops, client retries), and whether the system came out
// healthy.
//
// Two substrates, matching the fault-site split (DESIGN.md §9):
//
//	retail-chaos -plan overload-burst      # wall-clock live runtime (default)
//	retail-chaos -plan dvfs-flaky -seconds 10 -scale 0.5
//	retail-chaos -sim                      # deterministic simulator matrix
//	retail-chaos -sim -bursty              # same matrix under overload-mmpp arrivals
//	retail-chaos -list                     # show the built-in plans
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"retail/internal/cli"
	"retail/internal/experiments"
	"retail/internal/fault"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

func main() {
	var (
		planName = flag.String("plan", "overload-burst", "fault plan to replay (see -list)")
		list     = flag.Bool("list", false, "list the built-in fault plans and exit")
		simAll   = flag.Bool("sim", false, "run the deterministic simulator chaos matrix instead of the live runtime")
		bursty   = flag.Bool("bursty", false, "with -sim: drive arrivals from the overload-mmpp cohort spec (correlated bursts)")
		appName  = flag.String("app", "moses", "application model")
		workers  = flag.Int("workers", 2, "live worker goroutines")
		rps      = flag.Float64("rps", 60, "live client request rate (wall clock)")
		seconds  = flag.Float64("seconds", 10, "scenario length on the canonical plan clock")
		scale    = flag.Float64("scale", 0.2, "time compression: wall seconds per canonical second")
		samples  = flag.Int("samples", 300, "calibration samples per frequency level")
		seed     = flag.Int64("seed", 42, "seed for calibration, injection and load")
		metrics  = flag.Bool("metrics", false, "print the final Prometheus scrape after the run")
	)
	in := cli.Declare("retail-chaos", flag.CommandLine, cli.Params)
	flag.Parse()

	if *list {
		for _, p := range fault.Plans() {
			fmt.Println(p)
		}
		return
	}

	params := in.MustLoad().Params

	if *simAll {
		cfg := experiments.Quick()
		cfg.Seed = *seed
		cfg.Params = params
		run := experiments.ChaosAll
		if *bursty {
			run = experiments.ChaosAllBursty
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "retail-chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		return
	}
	if *bursty {
		in.Fail(errors.New("-bursty requires -sim"))
	}

	plan, err := fault.PlanByName(*planName)
	if err != nil {
		in.Fail(err)
	}
	app := workload.ByName(*appName)
	if app == nil {
		in.Fail(fmt.Errorf("unknown -app %q", *appName))
	}
	reg := telemetry.NewRegistry()
	rep, err := experiments.RunLiveChaos(experiments.LiveChaosConfig{
		Plan:            plan,
		App:             app,
		Workers:         *workers,
		RPS:             *rps,
		Seconds:         *seconds,
		TimeScale:       *scale,
		SamplesPerLevel: *samples,
		Seed:            *seed,
		Params:          params,
		Registry:        reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "retail-chaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(rep.Render())
	if *metrics {
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "retail-chaos: scrape: %v\n", err)
			os.Exit(1)
		}
	}
}
