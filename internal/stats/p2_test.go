package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v accepted", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}

func TestP2SmallSamples(t *testing.T) {
	e := NewP2Quantile(0.5)
	if _, ok := e.Value(); ok {
		t.Fatal("empty estimator claims validity")
	}
	e.Add(3)
	e.Add(1)
	v, ok := e.Value()
	if ok {
		t.Fatal("two samples should not claim full validity")
	}
	if v < 1 || v > 3 {
		t.Fatalf("small-sample fallback = %v", v)
	}
	if e.N() != 2 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestP2MedianUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewP2Quantile(0.5)
	for i := 0; i < 50000; i++ {
		e.Add(rng.Float64())
	}
	v, ok := e.Value()
	if !ok {
		t.Fatal("not valid after 50k samples")
	}
	if math.Abs(v-0.5) > 0.02 {
		t.Fatalf("median estimate = %v, want ≈0.5", v)
	}
}

func TestP2TailNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewP2Quantile(0.99)
	exact := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		x := rng.NormFloat64()*3 + 10
		e.Add(x)
		exact = append(exact, x)
	}
	v, _ := e.Value()
	want := Percentile(exact, 99)
	if math.Abs(v-want) > 0.25 {
		t.Fatalf("p99 estimate = %v, exact = %v", v, want)
	}
}

func TestP2AgainstExactHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewP2Quantile(0.95)
	exact := make([]float64, 0, 60000)
	for i := 0; i < 60000; i++ {
		// Lognormal-ish latency distribution.
		x := math.Exp(rng.NormFloat64() * 0.8)
		e.Add(x)
		exact = append(exact, x)
	}
	v, _ := e.Value()
	want := Percentile(exact, 95)
	if math.Abs(v-want)/want > 0.08 {
		t.Fatalf("p95 estimate = %v, exact = %v", v, want)
	}
}

// Property: the estimate always lies within [min, max] of the stream.
func TestP2Bounded(t *testing.T) {
	prop := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewP2Quantile(0.9)
		count := int(n)%500 + 6
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < count; i++ {
			x := rng.NormFloat64() * 100
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			e.Add(x)
		}
		v, ok := e.Value()
		return ok && v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkP2Add(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := NewP2Quantile(0.99)
	for i := 0; i < b.N; i++ {
		e.Add(rng.Float64())
	}
}
