package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLatencyTrackerZeroValue(t *testing.T) {
	var tr LatencyTracker
	tr.Add(3)
	if tr.Count() != 1 || tr.Mean() != 3 {
		t.Fatalf("count %d mean %v after one sample", tr.Count(), tr.Mean())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if v, ok := tr.Percentile(p); !ok || v != 3 {
			t.Fatalf("p%v of one sample = %v, %v", p, v, ok)
		}
	}
}

// TestLatencyTrackerKeepAll: percentiles cover every sample recorded, not
// a recent subset.
func TestLatencyTrackerKeepAll(t *testing.T) {
	var tr LatencyTracker
	for i := 1; i <= 10000; i++ {
		tr.Add(float64(i))
	}
	if v, ok := tr.Percentile(0); !ok || v != 1 {
		t.Fatalf("p0 = %v, %v", v, ok)
	}
	if v, ok := tr.Percentile(99); !ok || !almost(v, 9900.01, 1e-9) {
		t.Fatalf("p99 = %v, %v", v, ok)
	}
	qs := tr.Quantiles(0.5, 0.99)
	if len(qs) != 2 || qs[0] != 5000.5 || !almost(qs[1], 9900.01, 1e-9) {
		t.Fatalf("quantiles = %v", qs)
	}
}

// TestLatencyTrackerMatchesPercentile: Percentile and Quantiles are
// stats.Percentile over the same samples, bit for bit, whatever order
// the samples arrived in.
func TestLatencyTrackerMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 3001)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64())
	}
	ps := []float64{0, 1, 50, 95, 99, 99.9, 100}
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		var tr LatencyTracker
		for _, x := range xs {
			tr.Add(x)
		}
		qs := make([]float64, len(ps))
		for i, p := range ps {
			qs[i] = p / 100
		}
		got := tr.Quantiles(qs...)
		for i, p := range ps {
			want := Percentile(xs, p)
			if v, ok := tr.Percentile(p); !ok || v != want {
				t.Fatalf("trial %d: Percentile(%v) = %v, want %v", trial, p, v, want)
			}
			if got[i] != want {
				t.Fatalf("trial %d: Quantiles p%v = %v, want %v", trial, p, got[i], want)
			}
		}
	}
}

// TestLatencyTrackerMeanWelford: Mean is Welford's recurrence bit for
// bit (the rounding reported mean latencies carry), and agrees with the
// batch mean to within rounding.
func TestLatencyTrackerMeanWelford(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr LatencyTracker
	xs := make([]float64, 500)
	mean := 0.0
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		tr.Add(xs[i])
		d := xs[i] - mean
		mean += d / float64(i+1)
	}
	if tr.Mean() != mean {
		t.Fatalf("mean %v, Welford recurrence gives %v", tr.Mean(), mean)
	}
	if !almost(tr.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("mean %v vs batch %v", tr.Mean(), Mean(xs))
	}
	if tr.Count() != 500 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

// Property: the mean stays within [min, max] of the samples.
func TestLatencyTrackerMeanInvariants(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr LatencyTracker
		xs := make([]float64, int(n)%100+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)))
			tr.Add(xs[i])
		}
		return tr.Mean() >= Min(xs)-1e-9 && tr.Mean() <= Max(xs)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyTrackerEmptyQuantiles(t *testing.T) {
	var tr LatencyTracker
	qs := tr.Quantiles(0.5, 0.9)
	if len(qs) != 2 || qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("empty quantiles = %v", qs)
	}
	if _, ok := tr.Percentile(50); ok {
		t.Fatal("empty tracker should report no percentile")
	}
	if tr.Count() != 0 || tr.Mean() != 0 {
		t.Fatalf("empty count %d mean %v", tr.Count(), tr.Mean())
	}
}

func TestLatencyTrackerReserve(t *testing.T) {
	var tr LatencyTracker
	for i := 1; i <= 5; i++ {
		tr.Add(float64(i))
	}
	tr.Reserve(1000)
	if cap(tr.all) < 1000 {
		t.Fatalf("cap after Reserve(1000) = %d", cap(tr.all))
	}
	tr.Reserve(2) // smaller than held: a no-op
	if tr.Count() != 5 || tr.Mean() != 3 {
		t.Fatalf("count %d mean %v after Reserve", tr.Count(), tr.Mean())
	}
	for i, x := range tr.all {
		if x != float64(i+1) {
			t.Fatalf("sample %d = %v after Reserve", i, x)
		}
	}
	tr.Add(6)
	if v, _ := tr.Percentile(100); v != 6 {
		t.Fatalf("max after Reserve + Add = %v", v)
	}
}

// BenchmarkLatencyTrackerAdd is the per-completion recording cost once a
// run is well under way: the tracker already holds 10k samples.
func BenchmarkLatencyTrackerAdd(b *testing.B) {
	var tr LatencyTracker
	for i := 0; i < 10000; i++ {
		tr.Add(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Add(float64(i))
	}
}
