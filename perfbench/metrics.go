package main

import "fmt"

// MetricDef names one metric of the benchmark's contract. BENCHMARK.json
// at the repository root lists the same names (TestContractMatches).
type MetricDef struct {
	Name, Unit, Better string
}

// endToEnd are printed by every untraced run, on every workload, and
// gated. Each holds steady across seeds and runs on a shared host; the
// latency, miss and knee figures do not (see README.md) and are reported
// in Result.Extras instead.
var endToEnd = []MetricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"cpu_us_per_req", "us", "lower"},
	{"energy_mj_per_req", "mJ", "lower"},
}

// perLayer are printed by every traced run, on every workload. A layer
// the workload does not reach reads 0 and is marked n/a.
var perLayer = []MetricDef{
	{"core.calibrate_s", "s", "lower"},
	{"core.maxload_s", "s", "lower"},
	{"workload.record_s", "s", "lower"},
	{"workload.trace_encode_s", "s", "lower"},
	{"workload.trace_decode_s", "s", "lower"},
	{"workload.trace_bytes", "bytes", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"manager.arrival_calls", "count", "lower"},
	{"manager.arrival_ns", "ns", "lower"},
	{"manager.ready_calls", "count", "lower"},
	{"manager.ready_ns", "ns", "lower"},
	{"manager.start_calls", "count", "lower"},
	{"manager.start_ns", "ns", "lower"},
	{"manager.complete_calls", "count", "lower"},
	{"manager.complete_ns", "ns", "lower"},
	{"manager.hook_share", "share", "lower"},
	{"policy.decisions", "count", "lower"},
	{"policy.queue_at_decide_mean", "count", "lower"},
	{"policy.queue_at_decide_p99", "count", "lower"},
	{"predict.inferences_per_decision", "ratio", "lower"},
	{"predict.retrains", "count", "lower"},
	{"cpu.transitions_per_req", "ratio", "lower"},
	{"cluster.ns_per_req", "ns", "lower"},
	{"cluster.imbalance_cv", "ratio", "lower"},
	{"tune.cand_s", "s", "lower"},
	{"sweep.efficiency", "share", "higher"},
	{"live.ingress_us", "us", "lower"},
	{"live.queue_us", "us", "lower"},
	{"live.queue_us_p99", "us", "lower"},
	{"live.exec_us", "us", "lower"},
	{"live.egress_us", "us", "lower"},
	{"live.predict_ns", "ns", "lower"},
	{"live.predicts_per_decision", "ratio", "lower"},
	{"live.dvfs_writes_per_req", "ratio", "lower"},
	{"live.dvfs_ns", "ns", "lower"},
	{"live.dvfs_coalesced", "count", "higher"},
	{"loadgen.send_lag_us_p50", "us", "lower"},
	{"loadgen.send_lag_us_p99", "us", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// setLayerDefaults enters every per-layer metric as n/a; the workload
// then overwrites the ones on its path.
func setLayerDefaults(m Metrics) {
	for _, d := range perLayer {
		m.set(d.Name, 0, d.Unit, "n/a", 0, "layer not on this workload's path")
	}
}

// checkContract verifies a result carries exactly the metrics of its
// kind, each with the contract's unit.
func checkContract(res *Result, traced bool) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	problems := 0
	detail := ""
	for _, d := range want {
		got, ok := res.Metrics[d.Name]
		if !ok || got.Unit != d.Unit {
			problems++
			detail += fmt.Sprintf(" %s(unit %q, want %q)", d.Name, got.Unit, d.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		problems++
		detail += fmt.Sprintf(" %d metrics, want %d", len(res.Metrics), len(want))
	}
	res.check("metric set matches the contract", problems == 0, "%d metrics%s", len(want), detail)
}
