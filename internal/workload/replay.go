package workload

import (
	"fmt"
	"math/rand"

	"retail/internal/sim"
)

// ReplayApp is an App backed by recorded requests instead of a synthetic
// model — the path a production deployment takes: record (features,
// service demand) from live traffic as a v2 trace, then calibrate and
// evaluate against it. Generate draws records with replacement using the
// caller's RNG, so Poisson arrival generation composes unchanged.
type ReplayApp struct {
	name    string
	qos     QoS
	specs   []FeatureSpec
	records []TraceRecord
}

// NewReplayApp wraps a recorded trace of one known app under a new name.
// QoS and feature specs come from the recorded app; each request's
// service demand and compute fraction come from its record. Every record
// must pass the checks ReadTrace applies.
func NewReplayApp(name string, tr *Trace) (*ReplayApp, error) {
	src, err := tr.SingleApp()
	if err != nil {
		return nil, err
	}
	specs := src.FeatureSpecs()
	var prev sim.Time
	for i := range tr.Records {
		rec := &tr.Records[i]
		if err := checkRecord(rec, len(specs), prev); err != nil {
			return nil, fmt.Errorf("workload: replay record %d: %w", i, err)
		}
		prev = rec.Arrival
	}
	return &ReplayApp{name: name, qos: src.QoS(), specs: specs, records: tr.Records}, nil
}

// Name implements App.
func (a *ReplayApp) Name() string { return a.name }

// QoS implements App.
func (a *ReplayApp) QoS() QoS { return a.qos }

// FeatureSpecs implements App.
func (a *ReplayApp) FeatureSpecs() []FeatureSpec { return a.specs }

// Len returns the recorded request count.
func (a *ReplayApp) Len() int { return len(a.records) }

// Generate implements App by sampling the recorded requests with
// replacement. Features are copied, so callers may mutate them.
func (a *ReplayApp) Generate(rng *rand.Rand) *Request {
	rec := &a.records[rng.Intn(len(a.records))]
	return &Request{
		App:         a.name,
		Features:    append([]float64(nil), rec.Features...),
		ServiceBase: rec.ServiceBase,
		ComputeFrac: rec.ComputeFrac,
	}
}
