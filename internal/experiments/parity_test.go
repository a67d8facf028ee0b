package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"retail/internal/golden"
	"retail/internal/live"
)

// TestReplayParity is the refactor's keystone check (`make parity-check`):
// one recorded simulator run replayed through the live runtime's decider
// must yield a byte-identical decision sequence. A divergence means one
// adapter grew private policy logic again.
func TestReplayParity(t *testing.T) {
	res, err := RunParity(ParityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sim) < 500 {
		t.Fatalf("only %d decisions recorded; the run is too thin to prove anything", len(res.Sim))
	}
	if res.Ticks < 10 {
		t.Fatalf("only %d monitor ticks recorded; QoS′ steering is not exercised", res.Ticks)
	}
	if len(res.Sim) != len(res.Replay) {
		t.Fatalf("decision counts diverge: sim %d, replay %d", len(res.Sim), len(res.Replay))
	}
	if !res.Match() {
		i, s, r, _ := res.FirstDivergence()
		t.Fatalf("decision %d diverges:\n sim:    level=%d qos'=%.17g\n replay: level=%d qos'=%.17g",
			i, s.Level, float64(s.QoSPrime), r.Level, float64(r.QoSPrime))
	}

	// Golden pin: the decision stream itself is part of the contract — a
	// change to shared-core float ordering shows up here even if both
	// runtimes drift together. Refresh with -update after intentional
	// policy changes.
	sum := sha256.Sum256(res.SimBytes)
	line := fmt.Sprintf("decisions=%d ticks=%d sha256=%x\n", len(res.Sim), res.Ticks, sum)
	golden.Check(t, filepath.Join("testdata", "parity_golden.txt"), []byte(line))
}

// TestReplayParityNegativeControl: the harness is sensitive — replaying
// the same trace with one perturbed monitor constant must diverge. A
// parity check that cannot fail proves nothing.
func TestReplayParityNegativeControl(t *testing.T) {
	res, err := RunParity(ParityConfig{Duration: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match() {
		t.Fatal("baseline parity broken; negative control is meaningless")
	}
	mon := res.Monitor
	mon.StepFrac = 1.5 * mon.StepFrac // wrong controller gain
	perturbed := live.ReplayDecisions(res.Trace, res.Model, res.Grid, mon)
	if bytes.Equal(res.SimBytes, EncodeDecisions(perturbed)) {
		t.Fatal("perturbed replay still matches; the parity check is insensitive")
	}
}

// TestReplayParityAcrossSeeds: parity is not an artifact of one lucky
// trace — different workloads and pipeline shapes replay identically too.
func TestReplayParityAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{7, 1234} {
		res, err := RunParity(ParityConfig{Seed: seed, Duration: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sim) == 0 {
			t.Fatalf("seed %d: no decisions", seed)
		}
		if !res.Match() {
			i, s, r, _ := res.FirstDivergence()
			t.Fatalf("seed %d: decision %d diverges: sim {%d %.17g} replay {%d %.17g}",
				seed, i, s.Level, float64(s.QoSPrime), r.Level, float64(r.QoSPrime))
		}
	}
}
