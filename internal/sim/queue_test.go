package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// queueTrace drives one random schedule/cancel/run interleaving against an
// engine and records the exact fire sequence. The same seeded script runs
// against every queue kind; the heap (the original implementation) is the
// ordering oracle.
type queueTraceOp struct {
	kind   int // 0 schedule, 1 cancel, 2 run-until
	at     float64
	cancel int // index into previously scheduled refs
}

func randomScript(seed int64, n int) []queueTraceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queueTraceOp, n)
	for i := range ops {
		switch k := rng.Intn(10); {
		case k < 6:
			// Mix coarse and fine timestamps so equal-At ties are common
			// and bucket widths see multi-scale gaps.
			at := rng.Float64() * 50
			if rng.Intn(3) == 0 {
				at = float64(rng.Intn(20)) // heavy tie traffic
			}
			ops[i] = queueTraceOp{kind: 0, at: at}
		case k < 8:
			ops[i] = queueTraceOp{kind: 1, cancel: rng.Int()}
		default:
			ops[i] = queueTraceOp{kind: 2, at: rng.Float64() * 60}
		}
	}
	return ops
}

// runScript replays a script and returns the fire log: "<id>@<time>" per
// fired event plus each ref's Cancelled() report right after cancelling.
func runScript(k QueueKind, ops []queueTraceOp) []string {
	e := NewEngineWithQueue(k)
	var log []string
	var refs []EventRef
	id := 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			n := id
			id++
			at := Time(op.at)
			refs = append(refs, e.At(at, "p", func(en *Engine) {
				log = append(log, fmt.Sprintf("%d@%v", n, en.Now()))
			}))
		case 1:
			if len(refs) == 0 {
				continue
			}
			ref := refs[op.cancel%len(refs)]
			e.Cancel(ref)
			log = append(log, fmt.Sprintf("cancelled=%v", ref.Cancelled()))
		case 2:
			e.Run(Time(op.at))
		}
	}
	e.RunAll()
	log = append(log, fmt.Sprintf("fired=%d now=%v pending=%d", e.Fired(), e.Now(), e.Pending()))
	return log
}

// TestQueueKindsMatchHeap is the engine's ordering property test: for
// hundreds of random schedule/cancel/run interleavings, the calendar queue
// must reproduce the heap's fire sequence exactly — same events, same
// times, same tie order, same Cancelled() reports.
func TestQueueKindsMatchHeap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		script := randomScript(seed, 200)
		want := runScript(QueueHeap, script)
		got := runScript(QueueCalendar, script)
		if len(got) != len(want) {
			t.Fatalf("seed %d: calendar has %d log entries, heap has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: calendar diverges at %d: %q vs heap %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestQueueKindsMatchHeapNested adds the simulator's actual event shape:
// callbacks that schedule and cancel further events (completions that
// reschedule, stage-1 interrupts), again differential against the heap.
func TestQueueKindsMatchHeapNested(t *testing.T) {
	run := func(k QueueKind, seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngineWithQueue(k)
		var log []string
		var pending []EventRef
		var tick func(en *Engine)
		n := 0
		tick = func(en *Engine) {
			log = append(log, fmt.Sprintf("t=%v", en.Now()))
			if n >= 500 {
				return
			}
			n++
			switch rng.Intn(4) {
			case 0: // steady arrival chain
				pending = append(pending, en.After(Duration(rng.ExpFloat64()*0.01), "a", tick))
			case 1: // schedule then immediately reschedule (cancel+schedule)
				ref := en.After(Duration(rng.Float64()), "b", tick)
				en.Cancel(ref)
				pending = append(pending, en.After(Duration(rng.Float64()*0.5), "b2", tick))
			case 2: // cancel a random outstanding event
				if len(pending) > 0 {
					en.Cancel(pending[rng.Intn(len(pending))])
				}
				pending = append(pending, en.After(0, "c", tick)) // same-time tie
			default: // burst of ties at one instant
				at := en.Now() + Duration(rng.Float64()*0.1)
				for i := 0; i < 3; i++ {
					pending = append(pending, en.At(at, "d", tick))
				}
			}
		}
		e.At(0, "seed", tick)
		e.RunAll()
		log = append(log, fmt.Sprintf("fired=%d", e.Fired()))
		return log
	}
	for seed := int64(0); seed < 40; seed++ {
		want := run(QueueHeap, seed)
		got := run(QueueCalendar, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: calendar has %d log entries, heap has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: calendar diverges at %d: %q vs heap %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarQueueResizeChurn forces the calendar through grow, shrink
// and direct-search recalibration while preserving order.
func TestCalendarQueueResizeChurn(t *testing.T) {
	e := NewEngineWithQueue(QueueCalendar)
	var fired []Time
	record := func(en *Engine) { fired = append(fired, en.Now()) }
	// Dense cluster → grow; then sparse outliers → direct searches.
	for i := 0; i < 2000; i++ {
		e.At(Time(float64(i%50)*1e-6), "dense", record)
	}
	for i := 0; i < 10; i++ {
		e.At(Time(1000+float64(i)*3600), "sparse", record)
	}
	e.RunAll()
	if len(fired) != 2010 {
		t.Fatalf("fired %d, want 2010", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}
