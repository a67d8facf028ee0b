package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scheduler is the surface the ordering scripts drive: the engine (its
// heap) or the linear-scan oracle below. Handles index the events in
// scheduling order.
type scheduler interface {
	Now() Time
	schedule(at Time, fn func()) int
	// cancel removes a pending event and reports whether it removed one;
	// the engine side also requires the ref to report Cancelled() then.
	cancel(h int) bool
	Run(until Time) Time
	Fired() uint64
	Pending() int
}

// engineSched adapts the engine under test to scheduler.
type engineSched struct {
	*Engine
	refs []EventRef
}

func newEngineSched() scheduler { return &engineSched{Engine: NewEngine()} }

func (s *engineSched) schedule(at Time, fn func()) int {
	s.refs = append(s.refs, s.At(at, "p", func(*Engine) { fn() }))
	return len(s.refs) - 1
}

func (s *engineSched) cancel(h int) bool {
	before := s.Pending()
	ref := s.refs[h]
	s.Cancel(ref)
	return s.Pending() < before && ref.Cancelled()
}

// oracle is the test-only reference engine: pending events in a plain
// slice, the next one found by a linear min-scan over (At, seq). It has
// the engine's clamping and Run(until) rules and nothing else.
type oracle struct {
	now     Time
	seq     uint64
	fired   uint64
	pending []*oracleEvent
	all     []*oracleEvent
}

type oracleEvent struct {
	at      Time
	seq     uint64
	fn      func()
	pending bool
}

func newOracle() scheduler { return &oracle{} }

func (o *oracle) Now() Time     { return o.now }
func (o *oracle) Fired() uint64 { return o.fired }
func (o *oracle) Pending() int  { return len(o.pending) }
func (o *oracle) unlink(i int)  { o.pending = append(o.pending[:i], o.pending[i+1:]...) }

func (o *oracle) schedule(at Time, fn func()) int {
	if at < o.now {
		at = o.now
	}
	ev := &oracleEvent{at: at, seq: o.seq, fn: fn, pending: true}
	o.seq++
	o.pending = append(o.pending, ev)
	o.all = append(o.all, ev)
	return len(o.all) - 1
}

func (o *oracle) cancel(h int) bool {
	ev := o.all[h]
	if !ev.pending {
		return false
	}
	for i, p := range o.pending {
		if p == ev {
			o.unlink(i)
		}
	}
	ev.pending = false
	return true
}

func (o *oracle) Run(until Time) Time {
	for {
		if len(o.pending) == 0 {
			if o.now < until && !math.IsInf(float64(until), 1) {
				o.now = until
			}
			return o.now
		}
		m := 0
		for i, ev := range o.pending {
			if ev.at < o.pending[m].at || (ev.at == o.pending[m].at && ev.seq < o.pending[m].seq) {
				m = i
			}
		}
		ev := o.pending[m]
		if ev.at > until {
			o.now = until // also rewinds when until < now, as the engine does
			return o.now
		}
		o.unlink(m)
		ev.pending = false
		o.now = ev.at
		o.fired++
		ev.fn()
	}
}

// queueTraceOp is one step of a random schedule/cancel/run-until script.
type queueTraceOp struct {
	kind   int // 0 schedule, 1 cancel, 2 run-until
	at     float64
	cancel int // index into previously scheduled handles
}

func randomScript(seed int64, n int) []queueTraceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queueTraceOp, n)
	for i := range ops {
		switch k := rng.Intn(10); {
		case k < 6:
			// Mix coarse and fine timestamps so equal-At ties are common.
			at := rng.Float64() * 50
			if rng.Intn(3) == 0 {
				at = float64(rng.Intn(20)) // heavy tie traffic
			}
			ops[i] = queueTraceOp{kind: 0, at: at}
		case k < 8:
			ops[i] = queueTraceOp{kind: 1, cancel: rng.Int()}
		default:
			// Run-until targets below the clock rewind it.
			ops[i] = queueTraceOp{kind: 2, at: rng.Float64() * 60}
		}
	}
	return ops
}

// runScript replays a script and returns the fire log: "<id>@<time>" per
// fired event plus whether each cancel removed a pending event.
func runScript(s scheduler, ops []queueTraceOp) []string {
	var log []string
	id := 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			n := id
			id++
			s.schedule(Time(op.at), func() {
				log = append(log, fmt.Sprintf("%d@%v", n, s.Now()))
			})
		case 1:
			if id == 0 {
				continue
			}
			log = append(log, fmt.Sprintf("cancelled=%v", s.cancel(op.cancel%id)))
		case 2:
			s.Run(Time(op.at))
		}
	}
	s.Run(Time(math.Inf(1)))
	return append(log, fmt.Sprintf("fired=%d now=%v pending=%d", s.Fired(), s.Now(), s.Pending()))
}

func compareLogs(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: heap diverges at %d: %q vs oracle %q", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: heap has %d log entries, oracle has %d", what, len(got), len(want))
	}
}

// TestHeapMatchesOracle is the engine's ordering property test: for
// hundreds of random schedule/cancel/run interleavings, the heap must
// reproduce the oracle's fire sequence exactly — same events, same
// times, same tie order, same cancellations.
func TestHeapMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		script := randomScript(seed, 200)
		compareLogs(t, fmt.Sprintf("seed %d", seed),
			runScript(newEngineSched(), script), runScript(newOracle(), script))
	}
}

// TestHeapMatchesOracleNested adds the simulator's actual event shape:
// callbacks that schedule and cancel further events (completions that
// reschedule, stage-1 interrupts).
func TestHeapMatchesOracleNested(t *testing.T) {
	run := func(s scheduler, seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var log []string
		var pending []int
		var tick func()
		n := 0
		after := func(d Duration) int { return s.schedule(s.Now()+d, tick) }
		tick = func() {
			log = append(log, fmt.Sprintf("t=%v", s.Now()))
			if n >= 500 {
				return
			}
			n++
			switch rng.Intn(4) {
			case 0: // steady arrival chain
				pending = append(pending, after(Duration(rng.ExpFloat64()*0.01)))
			case 1: // schedule then immediately reschedule (cancel+schedule)
				s.cancel(after(Duration(rng.Float64())))
				pending = append(pending, after(Duration(rng.Float64()*0.5)))
			case 2: // cancel a random outstanding event
				if len(pending) > 0 {
					s.cancel(pending[rng.Intn(len(pending))])
				}
				pending = append(pending, after(0)) // same-time tie
			default: // burst of ties at one instant
				at := s.Now() + Duration(rng.Float64()*0.1)
				for i := 0; i < 3; i++ {
					pending = append(pending, s.schedule(at, tick))
				}
			}
		}
		s.schedule(0, tick)
		s.Run(Time(math.Inf(1)))
		return append(log, fmt.Sprintf("fired=%d", s.Fired()))
	}
	for seed := int64(0); seed < 40; seed++ {
		compareLogs(t, fmt.Sprintf("seed %d", seed), run(newEngineSched(), seed), run(newOracle(), seed))
	}
}

// TestCalendarQueueResizeChurn replays the classic calendar-queue stress
// shape: a dense cluster of near-ties followed by outliers hours apart,
// which drives a bucketed queue through grow, shrink and direct-search
// recalibration. The heap must fire all of it in the oracle's order.
func TestCalendarQueueResizeChurn(t *testing.T) {
	run := func(s scheduler) []string {
		var log []string
		record := func() { log = append(log, s.Now().String()) }
		for i := 0; i < 2000; i++ {
			s.schedule(Time(float64(i%50)*1e-6), record)
		}
		for i := 0; i < 10; i++ {
			s.schedule(Time(1000+float64(i)*3600), record)
		}
		s.Run(Time(math.Inf(1)))
		return log
	}
	got := run(newEngineSched())
	if len(got) != 2010 {
		t.Fatalf("fired %d, want 2010", len(got))
	}
	compareLogs(t, "denseThenSparse", got, run(newOracle()))
}

// TestHeapMatchesOracleShapes replays the fleet's steady state against
// the oracle: a few dozen events churning at millisecond gaps under one
// measurement event seconds ahead.
func TestHeapMatchesOracleShapes(t *testing.T) {
	shapes := []struct {
		name string
		run  func(s scheduler) []string
	}{
		{"fleetShape", func(s scheduler) []string {
			rng := rand.New(rand.NewSource(7))
			var log []string
			s.schedule(5, func() { log = append(log, "measure@"+s.Now().String()) })
			var churn func()
			churn = func() {
				log = append(log, s.Now().String())
				if s.Fired() < 20000 {
					s.schedule(s.Now()+Duration(rng.ExpFloat64()*70e-3), churn)
				}
			}
			for i := 0; i < 70; i++ {
				s.schedule(Duration(rng.ExpFloat64()*1e-3), churn)
			}
			s.Run(Time(math.Inf(1)))
			return log
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			got, want := shape.run(newEngineSched()), shape.run(newOracle())
			compareLogs(t, shape.name, got, want)
			if len(got) == 0 {
				t.Fatal("nothing fired")
			}
		})
	}
}
