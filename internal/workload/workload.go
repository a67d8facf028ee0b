// Package workload models the seven Tailbench latency-critical services the
// paper characterizes (§III, Table II) as synthetic request generators.
//
// Each application reproduces the *structure* the paper measured, which is
// all ReTail's pipeline can observe:
//
//   - which candidate features exist, and which of them actually correlate
//     with service time (word count yes, phrase character length no; audio
//     file size yes, path length no; matched-document count for Xapian;
//     transaction type plus item counts for Shore/Silo);
//   - the lateness of application features (obtainable only partway into
//     request processing);
//   - the service-time distribution shape (near-constant for Masstree and
//     ImgDNN, wide for the rest) and the median-to-tail ratio;
//   - the compute/memory split, which determines how service time scales
//     with core frequency. Latency is deliberately *not* proportional to
//     1/frequency — the memory-bound fraction does not speed up — because
//     the paper shows Rubik's and Gemini's proportional-scaling assumption
//     fails on non-compute-intensive services (§V-A).
package workload

import (
	"fmt"
	"math/rand"

	"retail/internal/sim"
)

// FeatureKind distinguishes numerical from categorical candidate features,
// which the paper scores with |Pearson ρ| and η² respectively.
type FeatureKind int

const (
	Numerical FeatureKind = iota
	Categorical
)

func (k FeatureKind) String() string {
	if k == Categorical {
		return "categorical"
	}
	return "numerical"
}

// FeatureSpec describes one candidate feature of an application — the
// unfiltered list a cloud user submits to ReTail (§IV-A). Lateness is the
// fraction of a request's service time that elapses before the feature's
// value can be observed: request features (present in the request packet)
// have lateness 0; application features (intermediate variables) have
// lateness > 0 and are rejected by feature selection when it exceeds 0.5.
type FeatureSpec struct {
	Name       string
	Kind       FeatureKind
	Categories int     // number of categories for Categorical features
	Lateness   float64 // fraction of service time before the value is known
}

// RequestFeature reports whether the feature is available in the request
// packet itself (lateness zero).
func (f FeatureSpec) RequestFeature() bool { return f.Lateness == 0 }

// QoS is an application's tail-latency constraint: the given Percentile of
// request sojourn times must stay below Latency.
type QoS struct {
	Latency    sim.Duration
	Percentile float64 // e.g. 99 for p99
}

func (q QoS) String() string {
	return fmt.Sprintf("p%g < %v", q.Percentile, q.Latency)
}

// Request is one in-flight unit of work. Timestamps mirror the paper's
// training-dataset fields (§V-C): Gen is t1 (client generation, carried in
// the packet), Recv is t2 (server receipt), End is t3 minus network time
// (completion); Start marks when processing began, so Start-Recv is the
// queueing delay and End-Start the service time.
type Request struct {
	ID  uint64
	App string

	// SLOClass indexes the request's SLO class in the generating spec's
	// class table (Spec.Classes). The paper's single-class client always
	// leaves it 0; cohort specs can map classes to distinct QoS′ scales
	// so the policy layer sheds and clocks classes differently.
	SLOClass uint8
	// MemoSlot belongs to the power manager serving the request: ReTail
	// keeps its per-request prediction memo in a slot array and records
	// the request's slot and feature readiness here (0 = neither yet).
	// RequestPool.Get zeroes it. The field sits in the padding after
	// SLOClass, so Request stays in its allocation size class.
	MemoSlot int32

	Gen   sim.Time
	Recv  sim.Time
	Start sim.Time
	End   sim.Time

	// Features holds one value per FeatureSpec of the generating app, in
	// spec order. Categorical values are category indices stored as
	// float64.
	Features []float64

	// ServiceBase is the request's intrinsic service time at the maximum
	// core frequency with no interference.
	ServiceBase sim.Duration
	// ComputeFrac is the fraction of ServiceBase spent in frequency-scaled
	// computation; the remainder is memory/IO time unaffected by DVFS.
	ComputeFrac float64

	// Dropped marks requests discarded by managers that shed load
	// (Gemini). Dropped requests never execute.
	Dropped bool

	// Stage1Done records that feature extraction already ran eagerly (via
	// a stage-1 interrupt while the worker was busy); Stage1Time is the
	// extraction time charged, credited back when the request starts.
	Stage1Done bool
	Stage1Time sim.Duration

	// ServedLevel records the (last) frequency level the request ran at,
	// for diagnostics.
	ServedLevel int
	// LevelShifts counts effective-frequency changes while this request
	// was executing; LastLevelShift is when the latest one landed. Online
	// training uses them to discard samples whose measured service time
	// mixes frequencies.
	LevelShifts    int
	LastLevelShift sim.Time
}

// ServiceAt returns the request's service time when executed entirely at
// frequency fGHz on a grid whose maximum is fMaxGHz, scaled by the
// environment's interference factor (1 = no interference). Only the
// compute fraction stretches as frequency drops.
func (r *Request) ServiceAt(fGHz, fMaxGHz, interference float64) sim.Duration {
	if fGHz <= 0 {
		panic("workload: non-positive frequency")
	}
	scale := r.ComputeFrac*(fMaxGHz/fGHz) + (1 - r.ComputeFrac)
	return sim.Duration(float64(r.ServiceBase) * scale * interference)
}

// QueueDelay returns Start − Recv.
func (r *Request) QueueDelay() sim.Duration { return r.Start - r.Recv }

// Sojourn returns End − Gen, the end-to-end latency the QoS constrains.
func (r *Request) Sojourn() sim.Duration { return r.End - r.Gen }

// ServiceTime returns End − Start.
func (r *Request) ServiceTime() sim.Duration { return r.End - r.Start }

// App is a latency-critical service: it names its candidate features and
// draws requests whose feature values and service demands follow the
// application's (hidden) ground-truth relationship. The power-management
// stack never sees the generator's internals — only features and measured
// latencies — exactly like the paper's runtime.
type App interface {
	Name() string
	QoS() QoS
	FeatureSpecs() []FeatureSpec
	// Generate draws a request with populated Features, ServiceBase and
	// ComputeFrac. Timestamps are filled in by the load generator/server.
	Generate(rng *rand.Rand) *Request
}

// InPlaceGenerator is the allocation-free generation fast path: apps that
// implement it fill a recycled Request instead of allocating one. The
// contract mirrors Generate exactly — same RNG call sequence, same field
// values — so a pooled and an unpooled run of the same seed produce
// identical request streams. GenerateInto must overwrite every field it
// owns (App, Features, ServiceBase, ComputeFrac) and reuse the Features
// backing via append(r.Features[:0], ...); the pool zeroes the rest.
type InPlaceGenerator interface {
	GenerateInto(r *Request, rng *rand.Rand)
}

// RequestPool recycles Request nodes through a free list. It is
// single-goroutine by design (the simulator is single-threaded per
// engine); each engine owns its own pool. Put must only be called once
// the request is fully retired — after every sink and hook has run —
// and nothing may retain the pointer or the Features slice past that
// point (predict.TrainingSet copies features for exactly this reason).
type RequestPool struct {
	free []*Request
}

// Get returns a zeroed request, reusing a retired node's allocation
// (including its Features backing array) when one is available.
func (p *RequestPool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		feats := r.Features
		*r = Request{Features: feats[:0]}
		return r
	}
	return &Request{}
}

// Put returns a retired request to the pool.
func (p *RequestPool) Put(r *Request) {
	if r == nil {
		return
	}
	p.free = append(p.free, r)
}

// FeatureIndex returns the index of the named feature in an app's specs,
// or -1 when absent.
func FeatureIndex(a App, name string) int {
	for i, s := range a.FeatureSpecs() {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// lognorm returns a multiplicative noise factor with the given relative
// standard deviation, centered on 1.
func lognorm(rng *rand.Rand, relStd float64) float64 {
	return 1 + rng.NormFloat64()*relStd
}

// clampDur keeps a duration above a small positive floor so noisy draws
// never produce non-positive service times.
func clampDur(d, floor sim.Duration) sim.Duration {
	if d < floor {
		return floor
	}
	return d
}
