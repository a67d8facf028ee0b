// Package stats implements the statistical machinery ReTail relies on:
// Pearson correlation for numerical features, the correlation ratio (η²)
// for categorical features, goodness-of-fit metrics (R², RMSE) for the
// latency predictor, and percentile/CDF utilities for tail-latency
// reporting.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when a statistic needs more data points than
// were provided.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient ρ between xs and ys.
// ρ ∈ [-1, 1]; |ρ| close to 1 indicates a strong linear relationship.
// The paper (§IV-B) uses |ρ| as the correlation degree of numerical
// features. If either series is constant, Pearson returns 0: a constant
// feature carries no information about service time.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrTooFewSamples
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CorrelationRatio returns η², the squared correlation ratio between a
// categorical feature (category label per sample) and a numerical outcome.
// η² ∈ [0, 1]; values near 1 mean the outcome varies little within each
// category. The paper (§IV-B) uses η² as the correlation degree of
// categorical features. η² equals the between-category variance divided by
// the total variance. A constant outcome yields 0.
func CorrelationRatio(categories []int, ys []float64) (float64, error) {
	if len(categories) != len(ys) {
		return 0, errors.New("stats: CorrelationRatio length mismatch")
	}
	if len(ys) < 2 {
		return 0, ErrTooFewSamples
	}
	total := Mean(ys)
	sums := map[int]float64{}
	counts := map[int]int{}
	for i, c := range categories {
		sums[c] += ys[i]
		counts[c]++
	}
	var between, totalSS float64
	for c, s := range sums {
		m := s / float64(counts[c])
		d := m - total
		between += float64(counts[c]) * d * d
	}
	for _, y := range ys {
		d := y - total
		totalSS += d * d
	}
	if totalSS == 0 {
		return 0, nil
	}
	eta2 := between / totalSS
	// Guard against floating-point drift pushing the ratio out of [0,1].
	if eta2 < 0 {
		eta2 = 0
	}
	if eta2 > 1 {
		eta2 = 1
	}
	return eta2, nil
}

// R2 returns the coefficient of determination for predictions against
// observations: 1 - SS_res/SS_tot. A perfect predictor scores 1; predicting
// the mean scores 0; worse-than-mean predictors score negative.
func R2(observed, predicted []float64) (float64, error) {
	if len(observed) != len(predicted) {
		return 0, errors.New("stats: R2 length mismatch")
	}
	if len(observed) < 2 {
		return 0, ErrTooFewSamples
	}
	m := Mean(observed)
	var ssRes, ssTot float64
	for i := range observed {
		r := observed[i] - predicted[i]
		ssRes += r * r
		d := observed[i] - m
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// RMSE returns the root-mean-squared error between observations and
// predictions. The paper normalizes RMSE by the QoS target (RMSE/QoS) to
// judge whether prediction error is material.
func RMSE(observed, predicted []float64) (float64, error) {
	if len(observed) != len(predicted) {
		return 0, errors.New("stats: RMSE length mismatch")
	}
	if len(observed) == 0 {
		return 0, ErrTooFewSamples
	}
	var s float64
	for i := range observed {
		r := observed[i] - predicted[i]
		s += r * r
	}
	return math.Sqrt(s / float64(len(observed))), nil
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	scratch := make([]float64, len(xs))
	copy(scratch, xs)
	return PercentileInPlace(scratch, p)
}

// PercentileInPlace is Percentile without the defensive copy: it permutes
// xs (partial quickselect ordering) instead of sorting a duplicate, which
// makes it O(n) and allocation-free — the form the QoS′ monitor calls once
// per tick on its sample window. The returned value is bit-identical to
// Percentile's: selection produces the same order statistics a full sort
// would.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p <= 0 {
		return Min(xs)
	}
	if p >= 100 {
		return Max(xs)
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo := selectKth(xs, lo)
	if lo == hi {
		return vlo
	}
	// After selectKth, everything right of lo is >= xs[lo]; the next order
	// statistic is that suffix's minimum.
	vhi := Min(xs[lo+1:])
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// selectKth partitions a (Hoare scheme, median-of-three pivot) so that
// a[k] holds the value it would have after an ascending sort, everything
// before it is <=, and everything after is >=; it returns a[k].
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	Value    float64 // x: the observed value
	Fraction float64 // y: fraction of samples ≤ Value
}

// CDF returns the empirical CDF of xs evaluated at up to maxPoints evenly
// spaced ranks (plus the extremes). With maxPoints ≤ 0 every sample becomes
// a point.
func CDF(xs []float64, maxPoints int) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := len(sorted)
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := i * (n - 1) / max(maxPoints-1, 1)
		pts = append(pts, CDFPoint{Value: sorted[idx], Fraction: float64(idx+1) / float64(n)})
	}
	return pts
}
