// Package sim provides a deterministic discrete-event simulation engine.
//
// All ReTail experiments run in virtual time: the engine keeps a priority
// queue of events ordered by (time, sequence number), so two events
// scheduled for the same instant fire in the order they were scheduled.
// Determinism is important because the paper's evaluation compares power
// managers on identical request streams; every source of randomness is a
// seeded *rand.Rand owned by the caller, never the global one.
//
// The queue behind the engine is a 4-ary min-heap (queue.go). Property
// tests replay random schedules through it and compare the fire sequence
// against a linear-scan oracle.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time measured in seconds from the start of the
// simulation. A float64 carries sub-microsecond resolution over the
// multi-minute horizons the experiments use.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Common durations, mirroring the time package for readability at call
// sites ("10*sim.Millisecond" instead of "0.01").
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
)

// Seconds reports t as a plain float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Std converts a virtual duration to a time.Duration for display purposes.
func (t Time) Std() time.Duration { return time.Duration(float64(t) * 1e9) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	abs := math.Abs(float64(t))
	switch {
	case abs >= 1:
		return fmt.Sprintf("%.6gs", float64(t))
	case abs >= 1e-3:
		return fmt.Sprintf("%.6gms", float64(t)*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.6gus", float64(t)*1e6)
	case t == 0:
		return "0s"
	default:
		return fmt.Sprintf("%.6gns", float64(t)*1e9)
	}
}

// Event is a scheduled callback. The callback receives the engine so it can
// schedule further events.
//
// Event nodes are pooled: once an event has fired or been cancelled, the
// engine recycles the node for a later At/After call. Callers therefore
// never hold *Event directly — At and After return an EventRef, a
// generation-stamped handle that stays safe (Cancel becomes a no-op,
// Cancelled reports false) after the node has been reused.
type Event struct {
	// Ordering and queue-bookkeeping fields first: the heap's sift paths
	// touch only this 32-byte prefix, so it stays in one cache line per
	// node.
	At    Time
	seq   uint64
	index int // heap slot; -1 once popped, -2 once cancelled
	gen   uint64

	Do   func(*Engine)
	Name string // optional label for tracing

	// do2/arg is the closure-free callback form (AtCall/AfterCall): a
	// long-lived func value plus a per-fire argument (a pointer boxes into
	// the interface without allocating). Exactly one of Do and do2 is set
	// on a scheduled node.
	do2 func(*Engine, any)
	arg any
}

// EventRef is a handle to one scheduled instance of an event. The zero
// EventRef is valid: Cancel is a no-op and Cancelled reports false.
//
// Because event nodes are recycled, a ref becomes stale once the engine
// reuses its node for a new event; a stale ref's Cancel is a guaranteed
// no-op (it can never cancel the new instance) and its Cancelled reports
// false.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Valid reports whether the ref points at an event node (zero refs do not).
// It does not say whether the event is still pending.
func (r EventRef) Valid() bool { return r.ev != nil }

// Cancelled reports whether this scheduled instance was removed before
// firing. It is exact until the engine recycles the node (cancelled nodes
// are reused by later At/After calls), so check it promptly after Cancel
// rather than arbitrarily later; a recycled node's old refs report false.
func (r EventRef) Cancelled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.index == -2
}

// eventLess is the engine-wide total order: (At, seq).
func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Engine is the event loop. The zero value is an empty engine at time zero.
type Engine struct {
	now     Time
	q       eventHeap
	seq     uint64
	stopped bool
	fired   uint64

	// free is the event-node freelist. A full run schedules millions of
	// events (arrivals, stage-1 interrupts, completion reschedules,
	// deferred frequency writes); recycling nodes on fire and on cancel
	// keeps the inner loop off the allocator. Determinism is unaffected:
	// ordering is (At, seq) and seq always comes fresh from the engine
	// counter, never from the recycled node.
	free []*Event

	// Trace, when non-nil, is called for every event fired.
	Trace func(at Time, name string)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.q) }

// schedule pulls a node off the freelist (or allocates one) and stamps it
// with a fresh sequence number. The caller fills the callback and pushes.
func (e *Engine) schedule(at Time, name string) *Event {
	if at < e.now {
		at = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++ // invalidate refs to the node's previous life
	} else {
		ev = &Event{}
	}
	ev.At, ev.Name, ev.seq = at, name, e.seq
	e.seq++
	return ev
}

// At schedules fn to run at absolute time at. Scheduling in the past (or at
// the present instant) fires the event at the current time but after all
// currently pending events at that time. It returns a ref so the caller
// can cancel the event.
func (e *Engine) At(at Time, name string, fn func(*Engine)) EventRef {
	ev := e.schedule(at, name)
	ev.Do = fn
	e.q.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, name string, fn func(*Engine)) EventRef {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, name, fn)
}

// AtCall schedules the closure-free callback form: fn is a long-lived func
// value (typically bound once per worker/core/generator) and arg the
// per-fire argument (typically a pointer, which boxes into the interface
// without allocating). Hot paths use it to schedule without creating a
// closure per event.
func (e *Engine) AtCall(at Time, name string, fn func(*Engine, any), arg any) EventRef {
	ev := e.schedule(at, name)
	ev.do2, ev.arg = fn, arg
	e.q.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// AfterCall is AtCall relative to the current time.
func (e *Engine) AfterCall(d Duration, name string, fn func(*Engine, any), arg any) EventRef {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+d, name, fn, arg)
}

// Cancel removes a scheduled event. Cancelling a zero ref, an
// already-fired, an already-cancelled, or a stale (recycled-node) ref is a
// no-op — a ref can only ever cancel the exact instance it was created
// for.
func (e *Engine) Cancel(ref EventRef) {
	ev := ref.ev
	if ev == nil || ev.gen != ref.gen || ev.index < 0 {
		return
	}
	e.q.remove(ev)
	ev.index = -2
	ev.Do, ev.do2, ev.arg, ev.Name = nil, nil, nil, "" // drop callback references for GC
	e.free = append(e.free, ev)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty, Stop is called, or the
// virtual clock passes until (events at exactly until still fire).
// It returns the virtual time at which it stopped.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for !e.stopped {
		if len(e.q) == 0 || e.q[0].At > until {
			if len(e.q) > 0 {
				// Pending events exist but the earliest is past until.
				// This branch runs even when until < now: the caller
				// rewound the clock, and future At/After calls clamp to
				// the rewound time.
				e.now = until
			} else if e.now < until && !math.IsInf(float64(until), 1) {
				e.now = until
			}
			return e.now
		}
		next := e.q.pop()
		e.now = next.At
		e.fired++
		if e.Trace != nil {
			e.Trace(e.now, next.Name)
		}
		do, do2, arg := next.Do, next.do2, next.arg
		// Recycle before running the callback: a nested After can reuse
		// the still-hot node immediately. Refs to the fired instance stay
		// safe via the generation stamp.
		next.Do, next.do2, next.arg, next.Name = nil, nil, nil, ""
		e.free = append(e.free, next)
		if do != nil {
			do(e)
		} else {
			do2(e, arg)
		}
	}
	return e.now
}

// RunAll executes every pending event regardless of time. Useful in tests.
func (e *Engine) RunAll() Time { return e.Run(Time(math.Inf(1))) }
