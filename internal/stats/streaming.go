package stats

// LatencyTracker records every latency sample of a run for exact
// end-of-run percentiles and mean. It only appends; the zero value is
// ready to use.
type LatencyTracker struct {
	all  []float64
	mean float64
}

// Add records one latency sample (seconds).
func (t *LatencyTracker) Add(x float64) {
	t.all = append(t.all, x)
	// Welford's recurrence, not sum/n: reported mean latencies (and the
	// goldens that pin them) depend on its exact rounding.
	t.mean += (x - t.mean) / float64(len(t.all))
}

// Count returns the number of samples recorded.
func (t *LatencyTracker) Count() int { return len(t.all) }

// Mean returns the mean latency (0 when empty).
func (t *LatencyTracker) Mean() float64 { return t.mean }

// Reserve pre-grows the sample buffer to hold n samples, sparing the
// append-doubling reallocations when the caller can estimate the sample
// count up front. Capacity only — recorded samples are untouched.
func (t *LatencyTracker) Reserve(n int) {
	if cap(t.all) >= n {
		return
	}
	grown := make([]float64, len(t.all), n)
	copy(grown, t.all)
	t.all = grown
}

// Percentile returns the p-th percentile (0..100) of the samples, and
// false when there are none.
func (t *LatencyTracker) Percentile(p float64) (float64, bool) {
	if len(t.all) == 0 {
		return 0, false
	}
	return Percentile(t.all, p), true
}

// Quantiles returns the given quantiles (0..1) of the samples; all zero
// when there are none.
func (t *LatencyTracker) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(t.all) == 0 {
		return out
	}
	// Quickselect per quantile instead of one full sort: selection yields
	// the same order statistics a sort would (so the results are
	// bit-identical), and for the handful of quantiles reported it is O(n)
	// per quantile against O(n log n) once. The scratch copy may be
	// permuted between calls; order statistics are permutation-invariant.
	scratch := make([]float64, len(t.all))
	copy(scratch, t.all)
	for i, q := range qs {
		out[i] = PercentileInPlace(scratch, q*100)
	}
	return out
}
