package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SpecVersion is bumped whenever the cohort-spec JSON shape changes in a
// way an old reader could mis-parse. Specs are inputs to golden-pinned
// CI sweeps, so drift must fail loudly, not silently reinterpret.
const SpecVersion = 1

// Spec is a versioned, ServeGen-informed description of a client
// population: N cohorts, each a group of clients sharing an application,
// an SLO class, an arrival process and a rate envelope, with a skewed
// per-client rate split inside the cohort. A Spec plus a seed fully
// determines the merged request stream (see NewCohortGenerator).
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Seed drives every client's RNG stream; NewCohortGenerator derives one
	// decorrelated sub-stream per (cohort, client) via splitmix64.
	Seed    int64        `json:"seed"`
	Cohorts []CohortSpec `json:"cohorts"`
}

// CohortSpec is one client cohort.
type CohortSpec struct {
	// App names the application model (workload.ByName).
	App string `json:"app"`
	// Clients is the cohort's population size; each client is an
	// independent arrival process with its own RNG stream.
	Clients int `json:"clients"`
	// RPS is the cohort's aggregate mean rate, split across clients by
	// RateSkew.
	RPS float64 `json:"rps"`
	// RateSkew is the Zipf exponent of the per-client rate split: client
	// i (0-based) gets weight (i+1)^-RateSkew. 0 splits evenly; ~1.2
	// reproduces the few-heavy-clients shape ServeGen reports.
	RateSkew float64 `json:"rate_skew,omitempty"`
	// Arrival selects the cohort's arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Envelope is the cohort's multi-period diurnal rate envelope
	// (empty = flat).
	Envelope []EnvelopePeriod `json:"envelope,omitempty"`
	// Class names the cohort's SLO class. Classes map to per-class QoS′
	// targets: the policy layer scales its internal latency target by
	// QoSScale for requests of this class, so Degrade/shed decisions can
	// differ by class (an "interactive" class with scale 0.6 is shed
	// sooner and run faster than a "batch" class with scale 1.5).
	Class string `json:"class"`
	// QoSScale is the class's QoS′ multiplier (default 1). Cohorts
	// sharing a class name must agree on the scale.
	QoSScale float64 `json:"qos_scale,omitempty"`
}

// scale returns the cohort's effective QoS′ multiplier.
func (c CohortSpec) scale() float64 {
	if c.QoSScale == 0 {
		return 1
	}
	return c.QoSScale
}

// Validate checks structural invariants: version, at least one cohort,
// known apps and arrival kinds, positive rates and populations, a valid
// envelope, and class-name/scale consistency.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("workload: spec version %d, this build reads %d", s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: spec %q has no cohorts", s.Name)
	}
	scales := map[string]float64{}
	for i, c := range s.Cohorts {
		if ByName(c.App) == nil {
			return fmt.Errorf("workload: spec %q cohort %d: unknown app %q", s.Name, i, c.App)
		}
		if c.Clients < 1 {
			return fmt.Errorf("workload: spec %q cohort %d: clients must be ≥ 1, got %d", s.Name, i, c.Clients)
		}
		if c.RPS <= 0 {
			return fmt.Errorf("workload: spec %q cohort %d: rps must be positive, got %g", s.Name, i, c.RPS)
		}
		if c.RateSkew < 0 {
			return fmt.Errorf("workload: spec %q cohort %d: rate_skew must be non-negative, got %g", s.Name, i, c.RateSkew)
		}
		if err := c.Arrival.Validate(); err != nil {
			return fmt.Errorf("workload: spec %q cohort %d: %w", s.Name, i, err)
		}
		if err := validateEnvelope(c.Envelope); err != nil {
			return fmt.Errorf("workload: spec %q cohort %d: %w", s.Name, i, err)
		}
		if c.Class == "" {
			return fmt.Errorf("workload: spec %q cohort %d: needs an SLO class name", s.Name, i)
		}
		if c.QoSScale < 0 {
			return fmt.Errorf("workload: spec %q cohort %d: qos_scale must be non-negative, got %g", s.Name, i, c.QoSScale)
		}
		if prev, ok := scales[c.Class]; ok && prev != c.scale() {
			return fmt.Errorf("workload: spec %q: class %q has conflicting qos_scale %g vs %g", s.Name, c.Class, prev, c.scale())
		}
		scales[c.Class] = c.scale()
	}
	if len(scales) > 256 {
		return fmt.Errorf("workload: spec %q has %d SLO classes, max 256", s.Name, len(scales))
	}
	return nil
}

// Classes returns the spec's SLO class table in first-appearance order:
// names and the per-class QoS′ scales, indexed by Request.SLOClass.
func (s *Spec) Classes() (names []string, scales []float64) {
	seen := map[string]bool{}
	for _, c := range s.Cohorts {
		if !seen[c.Class] {
			seen[c.Class] = true
			names = append(names, c.Class)
			scales = append(scales, c.scale())
		}
	}
	return names, scales
}

// Apps returns the distinct app names in first-appearance order.
func (s *Spec) Apps() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range s.Cohorts {
		if !seen[c.App] {
			seen[c.App] = true
			names = append(names, c.App)
		}
	}
	return names
}

// SingleApp returns the spec's app when every cohort shares one known
// app, or an error — the single-node runtimes (retail-sim, retail-live)
// serve one application.
func (s *Spec) SingleApp() (App, error) {
	apps := s.Apps()
	if len(apps) != 1 {
		return nil, fmt.Errorf("workload: spec %q spans %d apps %v; this runtime serves one", s.Name, len(apps), apps)
	}
	app := ByName(apps[0])
	if app == nil {
		return nil, fmt.Errorf("workload: spec %q app %q unknown", s.Name, apps[0])
	}
	return app, nil
}

// TotalRPS sums cohort mean rates.
func (s *Spec) TotalRPS() float64 {
	total := 0.0
	for _, c := range s.Cohorts {
		total += c.RPS
	}
	return total
}

// ScaledTo returns a deep copy whose cohort rates are scaled
// proportionally so the total mean rate equals rps. Builtin specs carry
// relative weights; sweeps scale them to a calibrated load point.
func (s *Spec) ScaledTo(rps float64) *Spec {
	out := *s
	out.Cohorts = make([]CohortSpec, len(s.Cohorts))
	copy(out.Cohorts, s.Cohorts)
	factor := rps / s.TotalRPS()
	for i := range out.Cohorts {
		out.Cohorts[i].RPS *= factor
		// Envelope slices are read-only; share them.
	}
	return &out
}

// SHA returns a short hex digest of the spec's canonical JSON — the
// fingerprint trace headers carry so a replay can refuse a trace
// recorded under a different population.
func (s *Spec) SHA() string {
	b, err := json.Marshal(s)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// ParseSpec strict-decodes a spec (unknown fields are errors — a typo'd
// knob must not silently revert to a default in a CI-pinned population)
// and validates it.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec resolves name as a builtin spec first, then as a file path.
func LoadSpec(name string) (*Spec, error) {
	if s := BuiltinSpec(name); s != nil {
		return s, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("workload: spec %q is neither builtin (%v) nor readable: %w",
			name, BuiltinSpecNames(), err)
	}
	defer f.Close()
	return ParseSpec(f)
}

// MarshalIndent renders the spec as indented JSON (for -spec-dump style
// inspection).
func (s *Spec) MarshalIndent() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---------------------------------------------------------------------------
// Builtin specs. Rates are relative weights (ScaledTo pins the total to a
// calibrated load point); all builtins use moses — every feature known at
// arrival — so the decision-replay harness can capture exact feature
// vectors, and one calibration serves the whole CI sweep.

// BuiltinSpecNames lists the builtin cohort specs in canonical order.
func BuiltinSpecNames() []string {
	return []string{"steady-poisson", "heavy-tail-gamma", "bursty-mmpp", "diurnal-mix", "slo-mix", "overload-mmpp"}
}

// BuiltinSpec returns a fresh copy of the named builtin spec (nil when
// unknown). Each call allocates, so callers may mutate (ScaledTo, seed
// overrides) freely.
func BuiltinSpec(name string) *Spec {
	switch name {
	case "steady-poisson":
		// The paper's client, expressed as a cohort: one homogeneous
		// population, Poisson arrivals, a single SLO class.
		return &Spec{
			Version: SpecVersion, Name: name, Seed: 1,
			Cohorts: []CohortSpec{
				{App: "moses", Clients: 8, RPS: 100, Arrival: ArrivalSpec{Kind: ArrivalPoisson}, Class: "standard"},
			},
		}
	case "heavy-tail-gamma":
		// Skewed per-client rates and heavy-tailed gaps: a few heavy
		// clients dominate, arrivals clump (IoD ≈ 1/shape ≈ 3).
		return &Spec{
			Version: SpecVersion, Name: name, Seed: 1,
			Cohorts: []CohortSpec{
				{App: "moses", Clients: 12, RPS: 70, RateSkew: 1.2,
					Arrival: ArrivalSpec{Kind: ArrivalGamma, Shape: 0.35}, Class: "standard"},
				{App: "moses", Clients: 4, RPS: 30,
					Arrival: ArrivalSpec{Kind: ArrivalGamma, Shape: 0.6}, Class: "batch", QoSScale: 1.5},
			},
		}
	case "bursty-mmpp":
		// Correlated bursts: an interactive cohort whose arrivals ride a
		// 2-state MMPP, over a steady Poisson background.
		return &Spec{
			Version: SpecVersion, Name: name, Seed: 1,
			Cohorts: []CohortSpec{
				{App: "moses", Clients: 6, RPS: 60,
					Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 6, BurstS: 0.4, IdleS: 1.6},
					Class:   "interactive", QoSScale: 0.6},
				{App: "moses", Clients: 6, RPS: 40, Arrival: ArrivalSpec{Kind: ArrivalPoisson}, Class: "standard"},
			},
		}
	case "diurnal-mix":
		// Two cohorts on phase-shifted multi-period envelopes (a "day"
		// compressed into seconds plus a faster ripple), one of them
		// Weibull-bursty — the fleet-sweep shape ROADMAP item 2 names.
		return &Spec{
			Version: SpecVersion, Name: name, Seed: 1,
			Cohorts: []CohortSpec{
				{App: "moses", Clients: 8, RPS: 55,
					Arrival:  ArrivalSpec{Kind: ArrivalWeibull, Shape: 0.7},
					Envelope: []EnvelopePeriod{{PeriodS: 8, Amplitude: 0.5}, {PeriodS: 2, Amplitude: 0.2, Phase: 0.25}},
					Class:    "interactive", QoSScale: 0.6},
				{App: "moses", Clients: 8, RPS: 45,
					Arrival:  ArrivalSpec{Kind: ArrivalPoisson},
					Envelope: []EnvelopePeriod{{PeriodS: 8, Amplitude: 0.4, Phase: 0.5}},
					Class:    "standard"},
			},
		}
	case "slo-mix":
		// Three SLO classes with distinct QoS′ targets — the population
		// the per-class decision-replay parity check pins: Algorithm 1
		// must pick different frequencies for the same queue state
		// depending on the head request's class.
		return &Spec{
			Version: SpecVersion, Name: name, Seed: 1,
			Cohorts: []CohortSpec{
				{App: "moses", Clients: 4, RPS: 35,
					Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 4, BurstS: 0.5, IdleS: 1.5},
					Class:   "interactive", QoSScale: 0.6},
				{App: "moses", Clients: 8, RPS: 45, Arrival: ArrivalSpec{Kind: ArrivalPoisson}, Class: "standard"},
				{App: "moses", Clients: 2, RPS: 20, RateSkew: 1.0,
					Arrival: ArrivalSpec{Kind: ArrivalGamma, Shape: 0.5}, Class: "batch", QoSScale: 1.5},
			},
		}
	case "overload-mmpp":
		// The chaos leg's population: nearly all load rides one heavily
		// bursty MMPP cohort, so overload windows arrive as correlated
		// trains rather than i.i.d. thinning — the shape that must not
		// break the PR 4 degradation ladder.
		return &Spec{
			Version: SpecVersion, Name: name, Seed: 1,
			Cohorts: []CohortSpec{
				{App: "moses", Clients: 4, RPS: 85,
					Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 10, BurstS: 0.8, IdleS: 2.4},
					Class:   "interactive", QoSScale: 0.7},
				{App: "moses", Clients: 2, RPS: 15, Arrival: ArrivalSpec{Kind: ArrivalPoisson}, Class: "standard"},
			},
		}
	}
	return nil
}
