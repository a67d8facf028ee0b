// Command retail-cluster runs the fleet-scale routing×policy×load sweep:
// N nodes, each with its own server and per-node DVFS policy, behind a
// pluggable cross-node dispatcher, all on one deterministic event engine.
//
// Usage:
//
//	retail-cluster                                # 100-node default sweep (≥1M requests)
//	retail-cluster -quick                         # CI-sized smoke
//	retail-cluster -nodes 32 -dispatchers power-of-two,global-jsq -policies retail
//	retail-cluster -per-node                      # per-node tables per cell
//	retail-cluster -csv out/                      # raw grid CSV
//	retail-cluster -metrics-out metrics.prom      # telemetry snapshot of the last cell
//	retail-cluster -tiers xapian,silo             # multi-tier budget allocation report
//	retail-cluster -quick -report report.json     # versioned run report with per-node energy×QoS ledger
//
// The default run drives ≥1M requests: 16 cells (4 dispatchers × 4 node
// policies) × 70000 requests each. Output is deterministic — byte-identical
// at every -parallel setting — and the same tables are golden-checked by
// `make cluster-check`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"retail/internal/cli"
	"retail/internal/cluster"
	"retail/internal/core"
	"retail/internal/experiments"
	"retail/internal/nn"
	"retail/internal/obs"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 100, "fleet size (nodes per cell)")
		workers     = flag.Int("workers", 4, "cores per node")
		dispatchers = flag.String("dispatchers", "", "comma-separated routing rules (default: all four)")
		policies    = flag.String("policies", "", "comma-separated per-node DVFS policies (default: retail,rubik,gemini,eetl)")
		loads       = flag.String("loads", "0.6", "comma-separated load fractions of fleet max")
		requests    = flag.Int("requests", 70000, "offered requests per sweep cell")
		quick       = flag.Bool("quick", false, "CI-sized fleet: small calibration; 4 nodes, 2 workers and 2500 requests unless -nodes/-workers/-requests are set")
		parallel    = flag.Int("parallel", 0, "concurrent sweep cells (0 = GOMAXPROCS, 1 = sequential); results are byte-identical at any setting")
		seed        = flag.Int64("seed", 42, "root seed")
		perNode     = flag.Bool("per-node", false, "print per-node tables for every cell")
		csvDir      = flag.String("csv", "", "directory to write the raw grid CSV into")
		metricsOut  = flag.String("metrics-out", "", "file for a telemetry snapshot of the last cell re-run with per-node series")
		tiers       = flag.String("tiers", "", "comma-separated apps: print the multi-tier budget allocation report instead of sweeping")
		samples     = flag.Int("budget-samples", 0, "profiling draw per tier for -tiers (0 = allocator default)")
	)
	// -params applies to every node; -record and -replay need a 1×1×1
	// sweep; -report attaches per-node energy×QoS ledgers and a telemetry
	// registry to every cell.
	in := cli.Declare("retail-cluster", flag.CommandLine, cli.Workload|cli.Params|cli.Report)
	flag.Parse()
	run := in.MustLoad()

	if *tiers != "" {
		if err := budgetReport(strings.Split(*tiers, ","), *samples, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.Params = run.Params

	opt := experiments.FleetOptions{
		App:             run.App.Name(),
		Nodes:           *nodes,
		WorkersPerNode:  *workers,
		Loads:           splitFloats(*loads),
		RequestsPerCell: *requests,
		Spec:            run.Spec,
		Record:          in.RecordPath != "",
		Replay:          run.Replay,
	}
	if *quick {
		applyQuick(&opt, in.Given)
	}
	if *dispatchers != "" {
		opt.Dispatchers = strings.Split(*dispatchers, ",")
	}
	if *policies != "" {
		opt.Policies = strings.Split(*policies, ",")
	}
	var reg *telemetry.Registry
	if in.ReportPath != "" {
		// A report wants full attribution: ledgers on every node and a
		// registry for the fleet roll-up.
		opt.Ledger = true
		reg = telemetry.NewRegistry()
		opt.Registry = reg
	}

	res, err := experiments.FleetSweep(cfg, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retail-cluster:", err)
		os.Exit(1)
	}
	fmt.Print(res.Render())

	if res.Recorded != nil {
		sha, err := in.WriteRecording(res.Recorded)
		if err != nil {
			in.Fail(err)
		}
		fmt.Printf("\nrecorded %s (%d records, sha256 %s)\n", in.RecordPath, len(res.Recorded.Records), sha)
	}
	if *perNode {
		for _, c := range res.Cells {
			fmt.Printf("\nper-node: load=%.2f %s/%s\n", c.Load, c.Dispatcher, c.Policy)
			fmt.Print(renderPerNode(c.Result))
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, "fleet_sweep.csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		if err := res.CSV(f); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote %s\n", path)
	}
	if *metricsOut != "" {
		if err := metricsSnapshot(cfg, opt, res, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if in.ReportPath != "" {
		rep := res.Report(*seed, obs.RollupRegistry(reg))
		if err := rep.WriteFile(in.ReportPath); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (report v%d, config %s)\n", in.ReportPath, rep.Version, rep.ConfigHash)
	}
}

// applyQuick sizes opt for a CI run, keeping every size flag the user
// set explicitly.
func applyQuick(opt *experiments.FleetOptions, given func(flag string) bool) {
	if !given("nodes") {
		opt.Nodes = 4
	}
	if !given("workers") {
		opt.WorkersPerNode = 2
	}
	if !given("requests") {
		opt.RequestsPerCell = 2500
	}
}

// budgetReport is the satellite surface for AllocateBudgets: profile the
// named tiers, split an end-to-end QoS across them, and print the
// profiled tails next to the budgets they earned.
func budgetReport(appNames []string, samples int, seed int64) error {
	var ts []*cluster.Tier
	var qosSum sim.Duration
	for _, name := range appNames {
		app := workload.ByName(strings.TrimSpace(name))
		if app == nil {
			return fmt.Errorf("unknown app %q", name)
		}
		ts = append(ts, &cluster.Tier{App: app, Workers: 4})
		qosSum += app.QoS().Latency
	}
	qos := workload.QoS{Latency: qosSum, Percentile: 99}
	profiled, err := cluster.AllocateBudgets(qos, ts, 0.1, samples, seed)
	if err != nil {
		return err
	}
	if samples <= 0 {
		samples = cluster.DefaultBudgetSamples
	}
	fmt.Printf("budget allocation: end-to-end p%.0f ≤ %v across %d tiers (%d samples/tier, 10%% margin)\n\n",
		qos.Percentile, qos.Latency, len(ts), samples)
	fmt.Printf("%-10s  %-12s  %-12s  %s\n", "tier", "profiled p95", "budget", "share")
	for i, t := range ts {
		fmt.Printf("%-10s  %-12v  %-12v  %.1f%%\n", t.App.Name(), profiled[i], t.Budget,
			100*float64(t.Budget)/float64(qos.Latency))
	}
	return nil
}

// renderPerNode prints one fleet cell's per-node breakdown.
func renderPerNode(r *cluster.FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s  %-9s  %-7s  %-4s  %-10s  %-8s  %-7s  %s\n",
		"node", "completed", "dropped", "viol", "p99", "energy_J", "power_W", "meanLvl")
	for _, n := range r.PerNode {
		fmt.Fprintf(&b, "%-5d  %-9d  %-7d  %-4d  %-10v  %-8.2f  %-7.2f  %.2f\n",
			n.Node, n.Completed, n.Dropped, n.Violations, sim.Time(n.P99),
			n.EnergyJ, n.AvgPowerW, n.MeanServedLevel())
	}
	return b.String()
}

// metricsSnapshot re-runs the sweep's last cell with a telemetry registry
// attached (per-node series under the standard metric families) and
// writes the exposition snapshot.
func metricsSnapshot(cfg experiments.Config, opt experiments.FleetOptions, res *experiments.FleetSweepResult, path string) error {
	if len(res.Cells) == 0 {
		return fmt.Errorf("no cells to snapshot")
	}
	cell := res.Cells[len(res.Cells)-1]
	app := workload.ByName(res.App)
	platform := cfg.Platform.WithWorkers(res.WorkersPerNode)
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return err
	}
	var nnCfg *nn.Config = cfg.GeminiNN
	rps := res.MaxRPSPerNode * float64(res.Nodes) * cell.Load
	dur := sim.Duration(float64(opt.RequestsPerCell) / rps)
	reg := telemetry.NewRegistry()
	_, err = cluster.RunFleet(cluster.FleetConfig{
		Cal: cal, Nodes: res.Nodes, WorkersPerNode: res.WorkersPerNode,
		Policy: cell.Policy, Dispatcher: cell.Dispatcher, GeminiNN: nnCfg,
		RPS: rps, Warmup: dur / 5, Duration: dur, Seed: cfg.Seed,
		Params:   cfg.Params,
		Registry: reg,
		Labels: []telemetry.Label{
			telemetry.L("dispatcher", cell.Dispatcher),
			telemetry.L("policy", cell.Policy),
		},
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WriteText(f)
}

func splitFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "retail-cluster: bad load %q: %v\n", part, err)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}
