package experiments

import (
	"testing"

	"retail/internal/sim"
	"retail/internal/stats"
)

// TestTimedTailMatchesPercentile pins the windowed tail to the repo's one
// percentile rule: linear interpolation between order statistics, as
// stats.Percentile computes it on the samples inside the window.
func TestTimedTailMatchesPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	shuffled := []float64{7, 3, 12, 1, 9, 4, 15, 2, 8, 11, 5, 14, 6, 10, 13}
	cases := []struct {
		name   string
		vals   []float64 // one sample per 10 ms, starting at t=0
		pct    float64
		now    sim.Time
		span   float64
		window []float64 // the samples inside (now-span, now]
		want   float64   // 0 when the rule result is not spelled out
	}{
		{"p99 of 10 interpolates", ramp(10), 99, 0.09, 1, ramp(10), 9.91},
		{"p50 of 10", ramp(10), 50, 0.09, 1, ramp(10), 5.5},
		{"p95 unsorted", shuffled, 95, 0.14, 1, shuffled, 14.3},
		{"window drops old samples", ramp(30), 99, 0.29, 0.145, ramp(30)[15:], 0},
		{"p100 is the max", ramp(12), 100, 0.11, 1, ramp(12), 12},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tt := newTimedTail(c.pct)
			for i, v := range c.vals {
				tt.add(sim.Time(float64(i)*0.01), v)
			}
			got, ok := tt.tail(c.now, c.span)
			if !ok {
				t.Fatal("tail reported no window")
			}
			want := stats.Percentile(c.window, c.pct)
			if got != want {
				t.Fatalf("tail = %v, stats.Percentile on the window = %v", got, want)
			}
			if c.want != 0 && (want-c.want > 1e-9 || c.want-want > 1e-9) {
				t.Fatalf("stats.Percentile = %v, want %v", want, c.want)
			}
		})
	}
	tt := newTimedTail(99)
	for i, v := range ramp(9) {
		tt.add(sim.Time(float64(i)*0.01), v)
	}
	if _, ok := tt.tail(0.08, 1); ok {
		t.Fatal("a 9-sample window reported a tail")
	}
}
