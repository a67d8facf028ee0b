// Command retail-tune closes the digital-twin loop: replay a recorded
// request trace (retail-sim/retail-cluster -record) under every
// candidate of a declared policy-parameter search, score each replay on
// energy × p99 × violations, and emit the winner as a params.json that
// retail-sim, retail-live, retail-cluster and retail-chaos all accept
// via -params.
//
// Usage:
//
//	retail-sim -spec steady-poisson -record run.trace
//	retail-tune -trace run.trace -search search.json -out params.json
//	retail-sim -replay run.trace -params params.json   # reproduce the winner
//	retail-tune -fields                                # list tunable knobs
//
// The run is deterministic: candidates replay concurrently (-parallel)
// but the table, report and winning params are byte-identical at every
// setting — same contract as the repo's other sweeps.
package main

import (
	"flag"
	"fmt"
	"os"

	"retail/internal/cli"
	"retail/internal/nn"
	"retail/internal/tune"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "recorded v2 trace to replay (required)")
		searchPath = flag.String("search", "", "search-spec JSON declaring the axes and bounds (required)")
		mgrName    = flag.String("manager", "retail", "tuned policy: retail, rubik, gemini or eetl")
		workers    = flag.Int("workers", 8, "twin worker cores (match the recording runtime)")
		samples    = flag.Int("samples", 400, "calibration samples per frequency level")
		seed       = flag.Int64("seed", 7, "seed for calibration and service-time jitter")
		parallel   = flag.Int("parallel", 0, "concurrent candidate replays (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any setting")
		quickNN    = flag.Bool("quick-nn", true, "use a small NN when tuning gemini instead of the 5×128")
		outPath    = flag.String("out", "", "file for the winning params.json")
		fields     = flag.Bool("fields", false, "list the tunable field paths and exit")
	)
	in := cli.Declare("retail-tune", flag.CommandLine, cli.Report)
	flag.Parse()

	if *fields {
		for _, f := range tune.FieldNames() {
			fmt.Println(f)
		}
		return
	}
	if *tracePath == "" || *searchPath == "" {
		fmt.Fprintln(os.Stderr, "retail-tune: -trace and -search are required")
		flag.Usage()
		os.Exit(2)
	}

	spec, err := tune.LoadSpec(*searchPath)
	if err != nil {
		in.Fail(err)
	}
	trace, err := cli.ReadTrace(*tracePath)
	if err != nil {
		in.Fail(err)
	}

	var nnCfg *nn.Config
	if *quickNN {
		c := nn.TunedConfig(1, 2, 32, 30, 32)
		nnCfg = &c
	}
	res, err := tune.Run(tune.Config{
		Trace: trace, Spec: spec,
		Manager: *mgrName, Workers: *workers,
		SamplesPerLevel: *samples, Seed: *seed,
		Parallel: *parallel, GeminiNN: nnCfg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "retail-tune: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Render())

	if *outPath != "" {
		b, err := res.Winner().Params.CanonicalJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "retail-tune: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "retail-tune: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (params %s)\n", *outPath, res.Winner().ParamsSHA)
	}
	if in.ReportPath != "" {
		rep := res.Report(*seed)
		if err := rep.WriteFile(in.ReportPath); err != nil {
			fmt.Fprintf(os.Stderr, "retail-tune: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (report v%d, config %s)\n", in.ReportPath, rep.Version, rep.ConfigHash)
	}
}
