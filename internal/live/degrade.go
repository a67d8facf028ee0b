package live

import (
	"sync/atomic"
	"time"

	"retail/internal/cpu"
	"retail/internal/policy"
)

// DegradePolicy configures the live runtime's graceful-degradation
// machinery. The zero value gives the safe defaults for DVFS failures
// (bounded retry, then pin-at-max) and leaves the load-management knobs
// — admission control and deadline timeouts — off, preserving the
// historical behavior for existing callers.
type DegradePolicy struct {
	// MaxDVFSRetries bounds write retries after the first failure before
	// falling back to pinning the worker at max frequency. 0 selects the
	// default (3); negative disables retries (fail straight to fallback).
	MaxDVFSRetries int
	// DVFSRetryBackoff is the initial retry backoff, doubling per attempt
	// (0 = 200µs). Kept small: a DVFS write is microseconds and the
	// worker is holding a request.
	DVFSRetryBackoff time.Duration
	// ShedFactor > 0 enables admission control: an arrival is shed when
	// the chosen queue's drain estimate — (depth+1) × the request's
	// predicted service time at max frequency — exceeds ShedFactor × QoS′.
	// Shedding at arrival is Gemini's baseline posture for requests that
	// provably cannot meet the deadline; the client retries with backoff.
	ShedFactor float64
	// DeadlineFactor > 0 enables dequeue deadline timeouts: a request
	// whose queueing delay alone already exceeds DeadlineFactor × QoS is
	// dropped without executing — running it can only waste energy and
	// delay requests that can still win.
	DeadlineFactor float64
	// DVFSWriteThrough disables the write coalescer: every decision
	// drives the backend even when the runtime believes the hardware
	// already holds the level. Chaos replays run write-through — a DVFS
	// fault plan must see real write traffic to inject into, and a
	// flaky-hardware scenario is exactly where "believes" stops being
	// trustworthy. Production keeps coalescing: failures clear the
	// known-level state, so real faults re-enable real writes anyway.
	DVFSWriteThrough bool
}

// DefaultChaosPolicy returns the policy the chaos scenarios run under:
// retries and fallback at their defaults, shedding at 1.5 × QoS′,
// deadline drops at 2 × QoS, and DVFS write-through so fault plans see
// every decision at the backend.
func DefaultChaosPolicy() DegradePolicy {
	return DegradePolicy{ShedFactor: 1.5, DeadlineFactor: 2, DVFSWriteThrough: true}
}

// withParams overlays the serializable degradation budgets from a
// policy.Params onto the runtime policy: every non-zero Params field
// wins, zero fields keep whatever the caller configured (historically
// the zero value, i.e. shedding and deadline drops off). Run before
// normalize so params-supplied retry knobs get the same defaulting.
func (p DegradePolicy) withParams(dp policy.DegradeParams) DegradePolicy {
	if dp.ShedFactor != 0 {
		p.ShedFactor = dp.ShedFactor
	}
	if dp.DeadlineFactor != 0 {
		p.DeadlineFactor = dp.DeadlineFactor
	}
	if dp.MaxDVFSRetries != 0 {
		p.MaxDVFSRetries = dp.MaxDVFSRetries
	}
	if dp.RetryBackoff != 0 {
		p.DVFSRetryBackoff = time.Duration(dp.RetryBackoff * 1e9)
	}
	return p
}

// normalize fills the retry defaults.
func (p DegradePolicy) normalize() DegradePolicy {
	if p.MaxDVFSRetries == 0 {
		p.MaxDVFSRetries = 3
	}
	if p.MaxDVFSRetries < 0 {
		p.MaxDVFSRetries = 0
	}
	if p.DVFSRetryBackoff <= 0 {
		p.DVFSRetryBackoff = 200 * time.Microsecond
	}
	return p
}

// DegradeCounts is a snapshot of the runtime's recovery work, the
// numbers the degradation report asserts are nonzero under each chaos
// plan.
type DegradeCounts struct {
	DVFSWriteErrors uint64 // failed write attempts (incl. failed retries)
	DVFSRetries     uint64 // retry attempts after a failure
	DVFSFallbacks   uint64 // retry budgets exhausted → pinned at max
	DVFSCoalesced   uint64 // writes elided because the hardware already held the level
	Shed            uint64 // arrivals refused by admission control
	DeadlineDrops   uint64 // dequeued requests already past deadline
}

// degradeState is the server-side counter block (atomics: workers and
// the enqueue path update it concurrently).
type degradeState struct {
	writeErrors atomic.Uint64
	retries     atomic.Uint64
	fallbacks   atomic.Uint64
	coalesced   atomic.Uint64
	shed        atomic.Uint64
	deadline    atomic.Uint64
}

func (d *degradeState) snapshot() DegradeCounts {
	return DegradeCounts{
		DVFSWriteErrors: d.writeErrors.Load(),
		DVFSRetries:     d.retries.Load(),
		DVFSFallbacks:   d.fallbacks.Load(),
		DVFSCoalesced:   d.coalesced.Load(),
		Shed:            d.shed.Load(),
		DeadlineDrops:   d.deadline.Load(),
	}
}

// appliedState tracks, per worker, the frequency level the runtime
// believes the hardware holds (updated only on successful writes) and
// whether the worker is currently pinned at max by the fallback.
type appliedState struct {
	lvl    cpu.Level
	known  bool
	pinned bool
}

// DegradeCounts returns the recovery-work counters.
func (s *Server) DegradeCounts() DegradeCounts { return s.deg.snapshot() }

// PinnedWorkers returns how many workers the DVFS fallback currently
// pins at max frequency.
func (s *Server) PinnedWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.applied {
		if a.pinned {
			n++
		}
	}
	return n
}

// AppliedLevel returns the last successfully written level for a worker
// and whether the runtime knows the hardware state (false before the
// first successful write or after an unrecovered write failure).
func (s *Server) AppliedLevel(worker int) (cpu.Level, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if worker < 0 || worker >= len(s.applied) {
		return 0, false
	}
	return s.applied[worker].lvl, s.applied[worker].known
}

// applyLevel drives the backend to lvl with bounded retry-with-backoff;
// on exhaustion it falls back to pinning the worker at max frequency —
// the paper's safety posture (never sacrifice QoS for power). It returns
// the level the hardware is believed to run at (the last known level when
// even the fallback failed) so the executor models the actual speed, not
// the wish.
func (s *Server) applyLevel(worker int, lvl cpu.Level) cpu.Level {
	// Write coalescing: when the last successful write already put the
	// hardware at lvl (and no fallback pin needs clearing), the backend
	// pass is a provable no-op — skip it. Under a settled policy the
	// common case is a re-decision of the standing level, so this turns
	// most per-request DVFS work into a counter bump; any failure path
	// clears `known`, which re-enables real writes until one succeeds.
	if !s.policy.DVFSWriteThrough {
		s.mu.Lock()
		if a := s.applied[worker]; a.known && !a.pinned && a.lvl == lvl {
			s.mu.Unlock()
			s.deg.coalesced.Add(1)
			return lvl
		}
		s.mu.Unlock()
	}
	pol := s.policy
	backoff := pol.DVFSRetryBackoff
	for attempt := 0; attempt <= pol.MaxDVFSRetries; attempt++ {
		if attempt > 0 {
			s.deg.retries.Add(1)
			s.metrics.dvfsRetries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := s.cfg.Backend.SetLevel(worker, lvl); err == nil {
			s.noteApplied(worker, lvl, false)
			return lvl
		}
		s.deg.writeErrors.Add(1)
		s.metrics.dvfsErrors.Inc()
	}
	// Retry budget exhausted: pin at max frequency. QoS is protected at
	// the cost of power; the pin clears on the next successful write.
	s.deg.fallbacks.Add(1)
	s.metrics.dvfsFallbacks.Inc()
	max := s.grid.MaxLevel()
	for attempt := 0; attempt <= pol.MaxDVFSRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := s.cfg.Backend.SetLevel(worker, max); err == nil {
			s.noteApplied(worker, max, true)
			return max
		}
		s.deg.writeErrors.Add(1)
		s.metrics.dvfsErrors.Inc()
	}
	// Even the pin failed: the hardware is at an unknown frequency. Keep
	// the last known level for pacing and surface the unknown state.
	s.mu.Lock()
	last := s.applied[worker].lvl
	if !s.applied[worker].known {
		last = max // never written successfully: cores start at max
	}
	s.applied[worker].known = false
	s.applied[worker].pinned = true
	pinned := s.pinnedLocked()
	s.mu.Unlock()
	s.metrics.pinned.Set(float64(pinned))
	return last
}

// noteApplied records a successful write and maintains the pinned gauge.
func (s *Server) noteApplied(worker int, lvl cpu.Level, pinned bool) {
	s.mu.Lock()
	a := &s.applied[worker]
	changed := a.pinned != pinned
	a.lvl, a.known, a.pinned = lvl, true, pinned
	n := s.pinnedLocked()
	s.mu.Unlock()
	if changed {
		s.metrics.pinned.Set(float64(n))
	}
}

func (s *Server) pinnedLocked() int {
	n := 0
	for _, a := range s.applied {
		if a.pinned {
			n++
		}
	}
	return n
}
