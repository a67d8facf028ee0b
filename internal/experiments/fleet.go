package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"encoding/csv"

	"retail/internal/cluster"
	"retail/internal/core"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// This file runs the fleet-scale routing×policy×load sweep (§VII-A taken
// horizontal): every cell is one cluster.RunFleet — N nodes, each with
// its own per-node DVFS policy, behind one cross-node dispatcher — and
// the sweep exposes routing as a policy axis of equal rank with the DVFS
// rule. The headline observation the golden pins: which dispatcher wins
// the fleet tail depends on load and on the node policy underneath it,
// i.e. routing flips the p99 winner.

// FleetOptions sizes the cluster sweep.
type FleetOptions struct {
	// App is the application every node serves (default xapian).
	App string
	// Nodes and WorkersPerNode shape each cell's fleet.
	Nodes          int
	WorkersPerNode int
	// Dispatchers (nil = policy.DispatcherNames()) and Policies (nil =
	// cluster.FleetPolicies()) are the two swept axes besides load.
	Dispatchers []string
	Policies    []string
	// Loads are fractions of the fleet's calibrated max (nil = cfg.Loads).
	Loads []float64
	// RequestsPerCell targets this many offered requests per cell; each
	// cell's measured duration is RequestsPerCell/RPS (default 20000).
	RequestsPerCell int
	// BudgetSamples is forwarded to cluster.AllocateBudgets when a
	// multi-tier budget report is requested (0 = the allocator default).
	BudgetSamples int
	// Ledger attaches per-node obs ledgers to every cell so the sweep's
	// Report carries full energy×QoS attribution.
	Ledger bool
	// Registry, when non-nil, receives every cell's per-node telemetry,
	// keyed by load/dispatcher/policy labels on top of the node label —
	// the substrate /metrics scrapes and fleet roll-ups read while a
	// sweep is running.
	Registry *telemetry.Registry

	// Spec drives every cell with the cohort population instead of the
	// single Poisson generator; each cell's aggregate rate is the spec
	// scaled to the cell's load point. The spec's app overrides App.
	Spec *workload.Spec
	// Record, with Spec, taps the (single) cell's pre-routing stream
	// into FleetSweepResult.Recorded; the sweep must then be exactly one
	// (load, dispatcher, policy) cell, as must it for Replay, which
	// substitutes a recorded trace for any generator.
	Record bool
	Replay *workload.Trace
}

func (o FleetOptions) withDefaults(cfg Config) FleetOptions {
	if o.App == "" {
		o.App = "xapian"
	}
	if o.Nodes <= 0 {
		o.Nodes = 100
	}
	if o.WorkersPerNode <= 0 {
		o.WorkersPerNode = 4
	}
	if o.Dispatchers == nil {
		o.Dispatchers = policy.DispatcherNames()
	}
	if o.Policies == nil {
		o.Policies = cluster.FleetPolicies()
	}
	if o.Loads == nil {
		o.Loads = cfg.Loads
	}
	if o.RequestsPerCell <= 0 {
		o.RequestsPerCell = 20000
	}
	return o
}

// FleetCell is one (load, dispatcher, policy) point of the sweep.
type FleetCell struct {
	Load       float64
	Dispatcher string
	Policy     string
	Result     *cluster.FleetResult
}

// FleetWinner records which dispatcher won the fleet tail for one
// (load, policy) pair — the routing-flips-the-winner evidence.
type FleetWinner struct {
	Load       float64
	Policy     string
	Dispatcher string
	Tail       float64 // winning fleet tail at the QoS percentile
}

// FleetSweepResult holds the full routing×policy×load grid.
type FleetSweepResult struct {
	App            string
	QoS            workload.QoS
	Nodes          int
	WorkersPerNode int
	// MaxRPSPerNode is the calibrated 100%-load point of one node; fleet
	// RPS at load f is f × Nodes × MaxRPSPerNode.
	MaxRPSPerNode float64
	Cells         []FleetCell
	Winners       []FleetWinner
	// Recorded is the single cell's pre-routing trace when
	// FleetOptions.Record was set.
	Recorded *workload.Trace
}

// FleetSweep runs the grid. Cells fan out through RunSweep under
// cfg.Parallel, sharing one read-only calibration (the Gemini network is
// trained before the fan-out, since its memoization is not
// goroutine-safe); results merge in canonical order — load-major,
// dispatcher, policy innermost — so output is byte-identical at every
// parallelism setting.
func FleetSweep(cfg Config, opt FleetOptions) (*FleetSweepResult, error) {
	// A workload source names its own app before defaults resolve.
	switch {
	case opt.Spec != nil && opt.Replay != nil:
		return nil, fmt.Errorf("experiments: Spec and Replay are mutually exclusive")
	case opt.Spec != nil:
		sa, err := opt.Spec.SingleApp()
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		opt.App = sa.Name()
	case opt.Replay != nil:
		ra, err := opt.Replay.SingleApp()
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		opt.App = ra.Name()
	case opt.Record:
		return nil, fmt.Errorf("experiments: Record requires Spec")
	}
	opt = opt.withDefaults(cfg)
	app := workload.ByName(opt.App)
	if app == nil {
		return nil, fmt.Errorf("experiments: unknown app %q", opt.App)
	}
	if (opt.Record || opt.Replay != nil) &&
		len(opt.Loads)*len(opt.Dispatchers)*len(opt.Policies) != 1 {
		return nil, fmt.Errorf("experiments: Record/Replay need exactly one (load, dispatcher, policy) cell, got %d×%d×%d",
			len(opt.Loads), len(opt.Dispatchers), len(opt.Policies))
	}
	platform := cfg.Platform.WithWorkers(opt.WorkersPerNode)
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, pol := range opt.Policies {
		if pol == "gemini" {
			if _, err := cal.GeminiModel(cfg.GeminiNN); err != nil {
				return nil, err
			}
		}
	}
	maxPerNode := core.CalibrateMaxLoad(app, platform, cfg.Seed)

	res := &FleetSweepResult{
		App: app.Name(), QoS: app.QoS(),
		Nodes: opt.Nodes, WorkersPerNode: opt.WorkersPerNode,
		MaxRPSPerNode: maxPerNode,
	}
	var cells []SweepCell[*cluster.FleetResult]
	for _, lf := range opt.Loads {
		for _, d := range opt.Dispatchers {
			for _, pol := range opt.Policies {
				lf, d, pol := lf, d, pol
				rps := maxPerNode * float64(opt.Nodes) * lf
				dur := sim.Duration(float64(opt.RequestsPerCell) / rps)
				warmup := dur / 5
				if opt.Replay != nil {
					warmup, dur = opt.Replay.Window() // the recording's horizon
				}
				cells = append(cells, SweepCell[*cluster.FleetResult]{
					Label: fmt.Sprintf("fleet/%s/load=%.2f/%s/%s", app.Name(), lf, d, pol),
					Run: func() (*cluster.FleetResult, error) {
						fc := cluster.FleetConfig{
							Cal: cal, Nodes: opt.Nodes, WorkersPerNode: opt.WorkersPerNode,
							Policy: pol, Dispatcher: d, GeminiNN: cfg.GeminiNN,
							RPS: rps, Warmup: warmup, Duration: dur,
							Seed:   cfg.Seed,
							Ledger: opt.Ledger,
							Params: cfg.Params,
						}
						switch {
						case opt.Replay != nil:
							fc.Replay, fc.RPS = opt.Replay, 0
						case opt.Spec != nil:
							// Pre-scale so a recorded trace's header carries
							// the spec actually generated.
							scaled := opt.Spec.ScaledTo(rps)
							fc.Spec, fc.RPS = scaled, 0
							if opt.Record {
								// Single cell (validated above), so the write
								// is race-free.
								res.Recorded = workload.NewTrace(scaled, cfg.Seed)
								fc.Record = res.Recorded
							}
						}
						if opt.Registry != nil {
							fc.Registry = opt.Registry
							fc.Labels = []telemetry.Label{
								telemetry.L("load", f2(lf)),
								telemetry.L("dispatcher", d),
								telemetry.L("policy", pol),
							}
						}
						return cluster.RunFleet(fc)
					},
				})
			}
		}
	}
	runs, err := RunSweep(cfg.Parallel, cells)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	idx := 0
	for _, lf := range opt.Loads {
		for _, d := range opt.Dispatchers {
			for _, pol := range opt.Policies {
				res.Cells = append(res.Cells, FleetCell{
					Load: lf, Dispatcher: d, Policy: pol, Result: runs[idx],
				})
				idx++
			}
		}
	}
	res.Winners = fleetWinners(res.Cells)
	return res, nil
}

// fleetWinners picks, for every (load, policy), the dispatcher with the
// lowest fleet tail. Ties break toward the first dispatcher in sweep
// order so the table is deterministic.
func fleetWinners(cells []FleetCell) []FleetWinner {
	type key struct {
		load   float64
		policy string
	}
	best := map[key]FleetWinner{}
	var order []key
	for _, c := range cells {
		k := key{c.Load, c.Policy}
		w, seen := best[k]
		if !seen {
			order = append(order, k)
		}
		if !seen || c.Result.TailAtQoSPct < w.Tail {
			best[k] = FleetWinner{Load: c.Load, Policy: c.Policy,
				Dispatcher: c.Dispatcher, Tail: c.Result.TailAtQoSPct}
		}
	}
	out := make([]FleetWinner, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load < out[j].Load
		}
		return out[i].Policy < out[j].Policy
	})
	return out
}

// DistinctWinners returns how many different dispatchers appear in the
// winners table — >1 is the routing-flips-the-winner result.
func (r *FleetSweepResult) DistinctWinners() int {
	set := map[string]bool{}
	for _, w := range r.Winners {
		set[w.Dispatcher] = true
	}
	return len(set)
}

// Render prints the full grid, then the winners summary.
func (r *FleetSweepResult) Render() string {
	t := &table{header: []string{"load", "dispatcher", "policy", "rps",
		"completed", "dropped", "viol", "p50", "p99", "tail@QoS", "QoS",
		"energy_J", "power_W", "imbalCV", "placement"}}
	for _, c := range r.Cells {
		fr := c.Result
		met := "miss"
		if fr.QoSMet {
			met = "met"
		}
		t.add(f2(c.Load), c.Dispatcher, c.Policy, f2(fr.RPS),
			strconv.Itoa(fr.Completed), strconv.Itoa(fr.Dropped),
			strconv.Itoa(fr.Violations), dur(fr.P50), dur(fr.P99),
			dur(fr.TailAtQoSPct), met, f2(fr.EnergyJ), f2(fr.AvgPowerW),
			f3(fr.ImbalanceCV), fmt.Sprintf("%016x", fr.PlacementHash))
	}
	w := &table{header: []string{"load", "policy", "winning dispatcher", "tail@QoS"}}
	for _, win := range r.Winners {
		w.add(f2(win.Load), win.Policy, win.Dispatcher, dur(win.Tail))
	}
	return fmt.Sprintf(
		"Fleet sweep: %s on %d nodes × %d workers (QoS p%.0f ≤ %v, max %.0f RPS/node)\n\n%s\nFleet-tail winners by (load, policy) — %d distinct dispatchers win somewhere:\n\n%s",
		r.App, r.Nodes, r.WorkersPerNode, r.QoS.Percentile, r.QoS.Latency,
		r.MaxRPSPerNode, t, r.DistinctWinners(), w)
}

// Report folds the sweep into the unified obs run report. The cells
// keep their canonical order, so at a fixed seed the canonical JSON is
// byte-stable; rollup (usually obs.RollupRegistry over the sweep's
// Registry) may be nil.
func (r *FleetSweepResult) Report(seed int64, rollup []obs.AppRollup) *obs.Report {
	hash := obs.HashConfig("fleet-sweep", r.App, r.Nodes, r.WorkersPerNode,
		len(r.Cells), r.QoS.Latency, r.QoS.Percentile)
	rep := obs.NewReport("fleet-sweep", seed, hash)
	fr := &obs.FleetReport{
		App:            r.App,
		QoSSeconds:     float64(r.QoS.Latency),
		QoSPercentile:  r.QoS.Percentile,
		Nodes:          r.Nodes,
		WorkersPerNode: r.WorkersPerNode,
		MaxRPSPerNode:  r.MaxRPSPerNode,
		Rollup:         rollup,
	}
	for _, c := range r.Cells {
		res := c.Result
		fr.Cells = append(fr.Cells, obs.FleetCellReport{
			Load: c.Load, Dispatcher: c.Dispatcher, Policy: c.Policy,
			RPS:       res.RPS,
			Completed: res.Completed, Dropped: res.Dropped,
			Violations: res.Violations, QoSMet: res.QoSMet,
			MeanLatency: res.MeanLatency,
			P50:         res.P50, P95: res.P95, P99: res.P99,
			TailAtQoS: res.TailAtQoSPct,
			EnergyJ:   res.EnergyJ, AvgPowerW: res.AvgPowerW,
			PlacementHash: fmt.Sprintf("%016x", res.PlacementHash),
			ImbalanceCV:   res.ImbalanceCV,
			Ledger:        res.Ledger,
		})
	}
	for _, w := range r.Winners {
		fr.Winners = append(fr.Winners, obs.WinnerReport{
			Load: w.Load, Policy: w.Policy,
			Dispatcher: w.Dispatcher, Tail: w.Tail,
		})
	}
	rep.Fleet = fr
	return rep
}

// CSV emits the raw grid for external plotting.
func (r *FleetSweepResult) CSV(out io.Writer) error {
	w := csv.NewWriter(out)
	rows := [][]string{{"load", "dispatcher", "policy", "rps", "completed",
		"dropped", "violations", "p50_s", "p95_s", "p99_s", "tail_at_qos_s",
		"qos_met", "energy_j", "avg_power_w", "imbalance_cv", "placement_hash"}}
	for _, c := range r.Cells {
		fr := c.Result
		rows = append(rows, []string{
			ftoa(c.Load), c.Dispatcher, c.Policy, ftoa(fr.RPS),
			strconv.Itoa(fr.Completed), strconv.Itoa(fr.Dropped),
			strconv.Itoa(fr.Violations), ftoa(fr.P50), ftoa(fr.P95),
			ftoa(fr.P99), ftoa(fr.TailAtQoSPct),
			strconv.FormatBool(fr.QoSMet), ftoa(fr.EnergyJ),
			ftoa(fr.AvgPowerW), ftoa(fr.ImbalanceCV),
			fmt.Sprintf("%016x", fr.PlacementHash),
		})
	}
	return writeAll(w, rows)
}
