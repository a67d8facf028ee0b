package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"retail/internal/live"
	"retail/internal/sim"
	"retail/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestSummarizeTail pins the reporting rule: the median plus the highest
// percentile that still has at least ten samples beyond it.
func TestSummarizeTail(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{50, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		d := Summarize(seq(c.n))
		if d.N != c.n || d.TailPct != c.wantPct {
			t.Errorf("n=%d: got N=%d tail p%g, want p%g", c.n, d.N, d.TailPct, c.wantPct)
		}
		if want := float64(c.n+1) / 2; d.Median != want {
			t.Errorf("n=%d: median %v, want %v", c.n, d.Median, want)
		}
		if c.wantPct > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, d.TailPct)
			}
		}
	}
	if d := Summarize(nil); d.N != 0 || d.Median != 0 {
		t.Errorf("empty: %+v", d)
	}
}

// TestOutcomeAccounting checks that a dropped, unanswered or broken
// request counts as a miss, and only those count as failures.
func TestOutcomeAccounting(t *testing.T) {
	o := Outcome{Attempted: 100, Completed: 90, OverQoS: 5, Dropped: 4, Unanswered: 3, Broken: 3}
	if got := o.Missed(); got != 15 {
		t.Errorf("missed %d, want 15 (5 late + 4 dropped + 3 unanswered + 3 broken)", got)
	}
	if got := o.Failed(); got != 10 {
		t.Errorf("failed %d, want 10", got)
	}
	if got := o.MissFrac(); got != 0.15 {
		t.Errorf("miss frac %v, want 0.15", got)
	}
	if got := o.FailFrac(); got != 0.1 {
		t.Errorf("fail frac %v, want 0.1", got)
	}
	var sum Outcome
	sum.add(o)
	sum.add(o)
	if sum.Attempted != 200 || sum.Missed() != 30 || sum.Failed() != 20 {
		t.Errorf("add: %+v", sum)
	}
	if (Outcome{}).MissFrac() != 0 {
		t.Error("empty outcome must have a zero miss fraction")
	}
}

// TestTally classifies answers the way the live check does.
func TestTally(t *testing.T) {
	qos := workload.QoS{Latency: 8 * sim.Millisecond, Percentile: 99}
	ok := live.Response{RecvNs: 10, StartNs: 20, EndNs: 30, Level: 3}
	ms := int64(time.Millisecond)
	v := &Volley{Stray: 1, Shots: []Shot{
		{DueNs: 0, RecvNs: 1 * ms, Answers: 1, Resp: ok},                                                // on time
		{DueNs: 0, RecvNs: 9 * ms, Answers: 1, Resp: ok},                                                // over QoS
		{DueNs: 0, Answers: 0},                                                                          // unanswered
		{DueNs: 0, RecvNs: 1 * ms, Answers: 2, Resp: ok},                                                // answered twice
		{DueNs: 0, RecvNs: 1 * ms, Answers: 1, Resp: live.Response{Dropped: true}},                      // shed
		{DueNs: 0, RecvNs: 1 * ms, Answers: 1, Resp: live.Response{RecvNs: 30, StartNs: 20, EndNs: 40}}, // stamps out of order
		{DueNs: 0, RecvNs: 1 * ms, Answers: 1, Resp: live.Response{Level: 12}},                          // off the grid
	}}
	o := tally(v, qos, 12)
	want := Outcome{Attempted: 7, Completed: 2, OverQoS: 1, Dropped: 1, Unanswered: 1, Broken: 4}
	if o != want {
		t.Errorf("tally = %+v, want %+v", o, want)
	}
}

func step(rps float64, tailMs, lagMs float64, backlog int) Step {
	return Step{RPS: rps, Outcome: Outcome{Attempted: 1000, Completed: 1000},
		TailS: tailMs / 1e3, LagS: lagMs / 1e3, Backlog: backlog}
}

// TestKnee covers the knee rule: the highest rate whose steps mostly
// meet the limits, where a growing backlog or a generator behind
// schedule fails a step even when its tail looks fine.
func TestKnee(t *testing.T) {
	l := StepLimits{QoSS: 0.008, MaxLagS: 0.004}
	for _, c := range []struct {
		name  string
		steps []Step
		want  float64
	}{
		{"clean climb", []Step{step(10, 1, 1, 0), step(20, 2, 1, 0), step(30, 9, 1, 0)}, 20},
		{"stall below the knee", []Step{step(10, 1, 1, 0), step(20, 12, 1, 0), step(30, 3, 1, 0), step(40, 20, 1, 0)}, 30},
		// At 30/s and an 8 ms limit at most 0.24 requests may be in flight.
		{"growing backlog", []Step{step(10, 1, 1, 0), step(30, 2, 1, 500)}, 10},
		{"generator behind schedule", []Step{step(10, 1, 1, 0), step(20, 2, 6, 0)}, 10},
		{"a failure fails the step", []Step{step(10, 1, 1, 0), {RPS: 20, Outcome: Outcome{Attempted: 10, Completed: 9, Unanswered: 1}}}, 10},
		{"nothing meets", []Step{step(10, 9, 1, 0)}, 0},
		{"majority of repeats", []Step{step(10, 1, 1, 0), step(20, 1, 1, 0), step(20, 9, 1, 0), step(20, 1, 1, 0),
			step(30, 1, 1, 0), step(30, 9, 1, 0)}, 20},
	} {
		if got := Knee(c.steps, l); got != c.want {
			t.Errorf("%s: knee %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, counting parallel children once.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "kid", Start: 10, End: 40, Parent: 0},
		{Name: "kid", Start: 30, End: 50, Parent: 0},  // overlaps the first kid
		{Name: "kid", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "grandkid", Start: 12, End: 20, Parent: 1},
	}
	got := map[string]LayerTime{}
	for _, lt := range SelfTimes(spans) {
		got[lt.Name] = lt
	}
	if r := got["root"]; r.SelfNs != 100-40-10 {
		t.Errorf("root self %d, want 50", r.SelfNs)
	}
	if k := got["kid"]; k.Spans != 3 || k.TotalNs != 80 || k.SelfNs != 80-8 {
		t.Errorf("kid %+v, want 3 spans, 80 total, 72 self", k)
	}
}

// TestWindowed splits a volley by due time.
func TestWindowed(t *testing.T) {
	ms := int64(time.Millisecond)
	v := &Volley{}
	for i := int64(0); i < 400; i++ {
		lat := 1 * ms
		if i >= 300 {
			lat = 50 * ms // the last window stalls
		}
		v.Shots = append(v.Shots, Shot{DueNs: i * ms, SentNs: i * ms, RecvNs: i*ms + lat, Answers: 1})
	}
	p50, tail, lag := windowed(v, 4, 99)
	if len(p50) != 4 || len(tail) != 4 || len(lag) != 4 {
		t.Fatalf("windows: %d %d %d", len(p50), len(tail), len(lag))
	}
	if got := Median(tail); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("median window tail %v, want 1ms: one stalled window must not decide", got)
	}
	if tail[3] != 0.05 {
		t.Errorf("stalled window tail %v, want 50ms", tail[3])
	}
}

// TestContractMatches keeps BENCHMARK.json and the metric tables in step.
func TestContractMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := fmt.Sprint(names), fmt.Sprint(workloadNames()); got != want {
		t.Errorf("workloads %v, want %v", got, want)
	}
}
