package policy

import "testing"

// TestJSQPicksLeastLoaded: strict minimum wins regardless of rotation.
func TestJSQPicksLeastLoaded(t *testing.T) {
	var j JSQ
	loads := []int{3, 1, 2}
	if got := j.Pick(3, func(i int) int { return loads[i] }); got != 1 {
		t.Fatalf("picked %d, want 1", got)
	}
}

// TestJSQRotatingTieBreak: with all workers tied, successive picks cycle
// through every worker instead of parking on a fixed subset — the PR-2
// tie-bias fix, now shared by both runtimes.
func TestJSQRotatingTieBreak(t *testing.T) {
	var j JSQ
	flat := func(int) int { return 0 }
	seen := map[int]int{}
	for k := 0; k < 9; k++ {
		seen[j.Pick(3, flat)]++
	}
	for w := 0; w < 3; w++ {
		if seen[w] != 3 {
			t.Fatalf("worker %d picked %d of 9 under flat load, want 3 (seen=%v)", w, seen[w], seen)
		}
	}
}

// TestJSQPointerFollowsChosen: the rotation pointer advances relative to
// the chosen index, not blindly by one. With worker 0 permanently busy
// and 1,2 tied, traffic must alternate between 1 and 2.
func TestJSQPointerFollowsChosen(t *testing.T) {
	var j JSQ
	load := func(i int) int {
		if i == 0 {
			return 10
		}
		return 0
	}
	seen := map[int]int{}
	for k := 0; k < 10; k++ {
		got := j.Pick(3, load)
		if got == 0 {
			t.Fatal("picked the busy worker")
		}
		seen[got]++
	}
	if seen[1] != 5 || seen[2] != 5 {
		t.Fatalf("uneven spread over tied workers: %v", seen)
	}
}

// TestDegradePredicates pins the shed and deadline arithmetic.
func TestDegradePredicates(t *testing.T) {
	d := Degrade{ShedFactor: 1.5, DeadlineFactor: 2}
	// (depth+1)·svc vs 1.5·QoS′: 3×0.004=0.012 > 1.5×0.006=0.009 → shed.
	if !d.ShouldShed(2, 0.004, 0.006) {
		t.Fatal("hopeless arrival admitted")
	}
	if d.ShouldShed(1, 0.004, 0.006) {
		t.Fatal("viable arrival shed (2×0.004=0.008 ≤ 0.009)")
	}
	if !d.DeadlineExceeded(0.021, 0.010) {
		t.Fatal("blown deadline not detected")
	}
	if d.DeadlineExceeded(0.019, 0.010) {
		t.Fatal("in-budget wait dropped")
	}
	// Zero factors disable both predicates.
	var off Degrade
	if off.ShouldShed(100, 1, 0.001) || off.DeadlineExceeded(100, 0.001) {
		t.Fatal("zero-value Degrade must disable shedding and deadlines")
	}
}

// timerFunc adapts a func to the Timer interface for RunMonitor tests.
type timerFunc func(d Duration, name string, fn func(Time))

func (t timerFunc) AfterFunc(d Duration, name string, fn func(Time)) { t(d, name, fn) }

// TestRunMonitorReschedules: each tick lands exactly interval after the
// previous one, and the reschedule happens after the tick body ran (the
// simulator's historical event ordering).
func TestRunMonitorReschedules(t *testing.T) {
	type sched struct {
		at Time
		fn func(Time)
	}
	var pending []sched
	now := Time(0)
	timer := timerFunc(func(d Duration, name string, fn func(Time)) {
		if name != "retail.monitor" {
			t.Fatalf("event name %q", name)
		}
		pending = append(pending, sched{now + d, fn})
	})
	var ticks []Time
	RunMonitor(timer, 0.1, "retail.monitor", func(at Time) { ticks = append(ticks, at) })
	for i := 0; i < 3; i++ {
		if len(pending) != 1 {
			t.Fatalf("pending = %d, want exactly one scheduled tick", len(pending))
		}
		s := pending[0]
		pending = pending[:0]
		now = s.at
		s.fn(now)
	}
	want := []Time{0.1, 0.2, 0.30000000000000004} // float accumulation, as the engine does it
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}
