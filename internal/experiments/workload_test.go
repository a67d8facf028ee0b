package experiments

import (
	"path/filepath"
	"testing"

	"retail/internal/golden"
)

// quickWorkloadConfig keeps the cohort sweep CI-sized: every builtin
// spec except the chaos overload one, 2000 offered requests per cell.
func quickWorkloadConfig(seed int64) (Config, WorkloadOptions) {
	cfg := Quick()
	cfg.Seed = seed
	opt := WorkloadOptions{
		Workers:         8,
		RequestsPerCell: 2000,
	}
	return cfg, opt
}

// TestWorkloadSweepGolden pins the rendered cohort-spec table — the
// per-spec run stats, the per-SLO-class breakdown, and the canonical
// trace/decision SHA-256 hashes — byte-for-byte against the committed
// golden. Because every cell internally asserts record→replay→re-record
// byte identity and sim↔live classed decision parity, a pass here is
// the full workload determinism proof at golden scale. Refresh with
// -update.
func TestWorkloadSweepGolden(t *testing.T) {
	cfg, opt := quickWorkloadConfig(42)
	res, err := WorkloadSweep(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Render()
	golden.Check(t, filepath.Join("testdata", "workload_golden.txt"), []byte(got))
	// The multi-class spec must actually exercise the class dimension.
	sawClasses := 0
	for _, c := range res.Cells {
		if c.Spec == "slo-mix" {
			sawClasses = len(c.Result.Classes)
		}
	}
	if sawClasses < 3 {
		t.Fatalf("slo-mix reported %d SLO classes, want ≥ 3", sawClasses)
	}
}

// TestWorkloadSweepParallelByteIdentical is the workload half of the
// sweep determinism contract: -parallel 1 and -parallel 8 must render
// the same bytes, and every cell's recorded trace and classed decision
// stream must hash identically across parallelism.
func TestWorkloadSweepParallelByteIdentical(t *testing.T) {
	run := func(parallel int) *WorkloadSweepResult {
		cfg, opt := quickWorkloadConfig(42)
		cfg.Parallel = parallel
		// Shrink further: this test runs the grid twice.
		opt.Specs = []string{"steady-poisson", "bursty-mmpp", "slo-mix"}
		opt.RequestsPerCell = 1200
		res, err := WorkloadSweep(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.Render() != par.Render() {
		t.Fatal("-parallel 1 and -parallel 8 rendered different workload sweeps")
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if a.TraceSHA != b.TraceSHA {
			t.Fatalf("cell %s: recorded trace hashes diverge across parallelism", a.Spec)
		}
		if a.DecisionSHA != b.DecisionSHA {
			t.Fatalf("cell %s: classed decision streams diverge across parallelism", a.Spec)
		}
	}
}
