package main

import (
	"math"
	"sort"

	"retail/internal/stats"
)

// Dist summarizes a timing sample the way every figure in this benchmark
// is reported: the median plus the highest percentile that still has at
// least ten samples beyond it, with the sample count.
type Dist struct {
	N      int
	Median float64
	// TailPct is the highest of 90, 99, 99.9, 99.99 with ≥ 10 samples
	// above it (0 when N < 100, i.e. no tail is reportable); Tail is
	// the value at that percentile.
	TailPct float64
	Tail    float64
}

// tailPercentiles are the candidate tail ranks, lowest first.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// Summarize computes a Dist over xs (xs is sorted in place).
func Summarize(xs []float64) Dist {
	d := Dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.Median = stats.PercentileSorted(xs, 50)
	for _, p := range tailPercentiles {
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 {
			d.TailPct, d.Tail = p, stats.PercentileSorted(xs, p)
		}
	}
	return d
}

// PercentileOf returns the p-th percentile of xs (xs is sorted in place).
func PercentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return stats.PercentileSorted(xs, p)
}

// Median returns the median of xs without modifying it (0 when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// Outcome tallies one batch of attempted requests. A request is attempted
// once it is offered; it then either completes (possibly over the QoS
// latency), is dropped by the system, goes unanswered, or breaks the
// protocol (a malformed or duplicate answer).
type Outcome struct {
	Attempted  int
	Completed  int
	OverQoS    int // completed, but later than the QoS latency
	Dropped    int
	Unanswered int
	Broken     int
}

func (o *Outcome) add(x Outcome) {
	o.Attempted += x.Attempted
	o.Completed += x.Completed
	o.OverQoS += x.OverQoS
	o.Dropped += x.Dropped
	o.Unanswered += x.Unanswered
	o.Broken += x.Broken
}

// Missed counts every attempted request that did not complete within the
// QoS latency: a dropped, unanswered or broken request misses by
// definition.
func (o Outcome) Missed() int { return o.Attempted - (o.Completed - o.OverQoS) }

// Failed counts every attempted request that was not served at all or
// violated the protocol.
func (o Outcome) Failed() int { return o.Dropped + o.Unanswered + o.Broken }

// MissFrac is Missed over Attempted (0 with nothing attempted).
func (o Outcome) MissFrac() float64 { return frac(o.Missed(), o.Attempted) }

// FailFrac is Failed over Attempted (0 with nothing attempted).
func (o Outcome) FailFrac() float64 { return frac(o.Failed(), o.Attempted) }

func frac(n, d int) float64 { return frac64(float64(n), float64(d)) }

func frac64(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// Mean returns the arithmetic mean (0 when empty).
func Mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return frac64(s, float64(len(xs)))
}

// Step is one rate of the live ladder as the generator saw it.
type Step struct {
	RPS     float64
	Outcome Outcome
	// TailS is the latency at the QoS percentile and LagS the 99th
	// percentile of the generator's send lag (seconds), each the median
	// over the step's time windows, so one stall does not decide a step.
	TailS, LagS float64
	// Backlog is the number of requests sent but unanswered when the
	// step's last request left.
	Backlog int
}

// StepLimits are the pass conditions a ladder step must meet.
type StepLimits struct {
	QoSS float64 // latency limit at the QoS percentile, seconds
	// MaxLagS is how far behind schedule the generator may run: a
	// generator that cannot send on time offers less than the nominal
	// rate, so the step says nothing about the server.
	MaxLagS float64
}

// Meets reports whether a step counts toward the knee: nothing dropped,
// unanswered or broken, the tail within the QoS latency, the generator
// on schedule, and no growing backlog — at most the RPS × QoS requests
// in flight that a server meeting the limit holds (Little's law).
func (s Step) Meets(l StepLimits) bool {
	o := s.Outcome
	return o.Attempted > 0 && o.Failed() == 0 && s.TailS <= l.QoSS &&
		s.LagS <= l.MaxLagS && float64(s.Backlog) <= s.RPS*l.QoSS
}

// Knee returns the highest rate that meets the limits (0 when none
// does). A ladder climbed several times has several steps per rate; a
// rate meets when more than half of its steps do. A failing rate below a
// passing one is a stall, not the capacity: past the capacity the
// backlog grows and no step passes.
func Knee(steps []Step, l StepLimits) float64 {
	meets, total := map[float64]int{}, map[float64]int{}
	for _, s := range steps {
		total[s.RPS]++
		if s.Meets(l) {
			meets[s.RPS]++
		}
	}
	knee := 0.0
	for rps, n := range total {
		if 2*meets[rps] > n {
			knee = math.Max(knee, rps)
		}
	}
	return knee
}
