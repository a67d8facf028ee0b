package workload

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"retail/internal/sim"
)

// drawGaps samples n consecutive gaps from a fresh process instance.
func drawGaps(spec ArrivalSpec, rate float64, n int, seed int64) []float64 {
	proc := newArrival(spec)
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = proc.NextGap(rng, rate)
	}
	return gaps
}

// iod computes the index of dispersion (variance/mean) of arrival counts
// in fixed windows of width w, given consecutive gaps starting at t=0.
func iod(gaps []float64, w float64) float64 {
	t, end := 0.0, 0.0
	for _, g := range gaps {
		end += g
	}
	nWin := int(end / w)
	counts := make([]float64, nWin)
	for _, g := range gaps {
		t += g
		if win := int(t / w); win < nWin {
			counts[win]++
		}
	}
	mean, varsum := 0.0, 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(nWin)
	for _, c := range counts {
		varsum += (c - mean) * (c - mean)
	}
	return varsum / float64(nWin-1) / mean
}

var arrivalCases = []struct {
	name string
	spec ArrivalSpec
}{
	{"poisson", ArrivalSpec{Kind: ArrivalPoisson}},
	{"gamma", ArrivalSpec{Kind: ArrivalGamma, Shape: 0.35}},
	{"weibull", ArrivalSpec{Kind: ArrivalWeibull, Shape: 0.7}},
	{"mmpp", ArrivalSpec{Kind: ArrivalMMPP, Burst: 6, BurstS: 0.4, IdleS: 1.6}},
}

// TestArrivalMeanRate checks the normalization contract: every process's
// long-run mean gap at rate r is 1/r, so cohorts can swap burstiness
// without changing offered load.
func TestArrivalMeanRate(t *testing.T) {
	const rate, n = 50.0, 200000
	for _, tc := range arrivalCases {
		gaps := drawGaps(tc.spec, rate, n, 7)
		total := 0.0
		for _, g := range gaps {
			if g < 0 {
				t.Fatalf("%s: negative gap %g", tc.name, g)
			}
			total += g
		}
		mean := total / n
		if got, want := mean*rate, 1.0; math.Abs(got-want) > 0.03 {
			t.Errorf("%s: mean gap %g·rate = %g, want 1 ± 0.03", tc.name, mean, got)
		}
	}
}

// TestArrivalDispersion checks burstiness ordering: Poisson counts have
// index of dispersion ≈ 1; gamma/weibull with shape < 1 and MMPP are
// over-dispersed (> 1).
func TestArrivalDispersion(t *testing.T) {
	const rate, n = 50.0, 200000
	for _, tc := range arrivalCases {
		d := iod(drawGaps(tc.spec, rate, n, 11), 0.5)
		switch tc.name {
		case "poisson":
			if d < 0.85 || d > 1.15 {
				t.Errorf("poisson: index of dispersion %g, want ≈ 1", d)
			}
		default:
			if d < 1.3 {
				t.Errorf("%s: index of dispersion %g, want > 1.3 (bursty)", tc.name, d)
			}
		}
	}
}

// TestEnvelopePhase pins the envelope's shape: exact values at quarter
// periods, phase shift as time shift, the floor clamp, and — end to end —
// that a cohort's arrivals actually concentrate in the peak half-cycle.
func TestEnvelopePhase(t *testing.T) {
	env := []EnvelopePeriod{{PeriodS: 8, Amplitude: 0.5}}
	for _, tc := range []struct{ at, want float64 }{
		{0, 1}, {2, 1.5}, {4, 1}, {6, 0.5},
	} {
		if got := EnvelopeAt(env, tc.at); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("EnvelopeAt(t=%g) = %g, want %g", tc.at, got, tc.want)
		}
	}
	// Phase 0.25 of an 8 s period ≡ advancing time by 2 s.
	shifted := []EnvelopePeriod{{PeriodS: 8, Amplitude: 0.5, Phase: 0.25}}
	for _, at := range []float64{0, 1, 3, 5.5, 7} {
		if got, want := EnvelopeAt(shifted, at), EnvelopeAt(env, at+2); math.Abs(got-want) > 1e-12 {
			t.Errorf("phase 0.25 at t=%g: %g, want %g", at, got, want)
		}
	}
	// The clamp floor (validation caps amplitudes at 0.95, but EnvelopeAt
	// must still behave on raw inputs).
	deep := []EnvelopePeriod{{PeriodS: 8, Amplitude: 0.99}}
	if got := EnvelopeAt(deep, 6); got != envelopeFloor {
		t.Errorf("trough of amplitude-0.99 envelope = %g, want floor %g", got, envelopeFloor)
	}

	// End to end: a cohort on this envelope sends more in the rising half
	// period [0,4) than in the falling one [4,8).
	spec := &Spec{Version: SpecVersion, Name: "env-test", Seed: 3, Cohorts: []CohortSpec{{
		App: "moses", Clients: 4, RPS: 200,
		Arrival: ArrivalSpec{Kind: ArrivalPoisson}, Envelope: env, Class: "standard",
	}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	var firstHalf, secondHalf int
	g := NewCohortGenerator(spec, 3, func(en *sim.Engine, r *Request) {
		if en.Now() < 4 {
			firstHalf++
		} else {
			secondHalf++
		}
	})
	g.Start(e)
	e.Run(8)
	if firstHalf <= secondHalf {
		t.Errorf("envelope phase inverted: %d arrivals in peak half, %d in trough half", firstHalf, secondHalf)
	}
	// Expected ratio: mean multiplier 1+2A/π ≈ 1.32 vs 1−2A/π ≈ 0.68.
	if ratio := float64(firstHalf) / float64(secondHalf); ratio < 1.5 {
		t.Errorf("peak/trough arrival ratio %g, want > 1.5 (≈1.93 in expectation)", ratio)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := func() *Spec {
		return &Spec{Version: SpecVersion, Name: "t", Seed: 1, Cohorts: []CohortSpec{{
			App: "moses", Clients: 2, RPS: 10, Arrival: ArrivalSpec{Kind: ArrivalPoisson}, Class: "std",
		}}}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"version", func(s *Spec) { s.Version = 99 }, "version"},
		{"no-cohorts", func(s *Spec) { s.Cohorts = nil }, "no cohorts"},
		{"unknown-app", func(s *Spec) { s.Cohorts[0].App = "nope" }, "unknown app"},
		{"zero-clients", func(s *Spec) { s.Cohorts[0].Clients = 0 }, "clients"},
		{"neg-rps", func(s *Spec) { s.Cohorts[0].RPS = -1 }, "rps"},
		{"neg-skew", func(s *Spec) { s.Cohorts[0].RateSkew = -0.5 }, "rate_skew"},
		{"bad-arrival", func(s *Spec) { s.Cohorts[0].Arrival.Kind = "lognormal" }, "arrival kind"},
		{"gamma-no-shape", func(s *Spec) { s.Cohorts[0].Arrival = ArrivalSpec{Kind: ArrivalGamma} }, "shape"},
		{"mmpp-flat", func(s *Spec) { s.Cohorts[0].Arrival = ArrivalSpec{Kind: ArrivalMMPP, Burst: 0.5, BurstS: 1, IdleS: 1} }, "burst ratio"},
		{"no-class", func(s *Spec) { s.Cohorts[0].Class = "" }, "class"},
		{"env-amplitude", func(s *Spec) {
			s.Cohorts[0].Envelope = []EnvelopePeriod{{PeriodS: 4, Amplitude: 0.6}, {PeriodS: 9, Amplitude: 0.5}}
		}, "amplitudes"},
		{"env-phase", func(s *Spec) {
			s.Cohorts[0].Envelope = []EnvelopePeriod{{PeriodS: 4, Amplitude: 0.3, Phase: 1.5}}
		}, "phase"},
		{"scale-conflict", func(s *Spec) {
			s.Cohorts = append(s.Cohorts, s.Cohorts[0], s.Cohorts[0])
			s.Cohorts[1].QoSScale = 0.5
		}, "conflicting qos_scale"},
	}
	for _, tc := range cases {
		s := ok()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Strict parse: an unknown field (typo'd knob) must be an error.
	if _, err := ParseSpec(strings.NewReader(`{"version":1,"name":"x","seed":1,"cohorts":[{"app":"moses","clients":1,"rsp":5}]}`)); err == nil {
		t.Error("ParseSpec accepted an unknown cohort field")
	}
}

func TestBuiltinSpecs(t *testing.T) {
	for _, name := range BuiltinSpecNames() {
		s := BuiltinSpec(name)
		if s == nil {
			t.Fatalf("builtin %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		scaled := s.ScaledTo(500)
		if err := scaled.Validate(); err != nil {
			t.Errorf("builtin %q scaled invalid: %v", name, err)
		}
		if got := scaled.TotalRPS(); math.Abs(got-500) > 1e-9 {
			t.Errorf("builtin %q scaled to 500 RPS, got %g", name, got)
		}
		if s.SHA() == scaled.SHA() {
			t.Errorf("builtin %q: SHA unchanged by scaling", name)
		}
		if s.SHA() != BuiltinSpec(name).SHA() {
			t.Errorf("builtin %q: SHA unstable", name)
		}
		if _, err := s.SingleApp(); err != nil {
			t.Errorf("builtin %q: %v", name, err)
		}
	}
	if BuiltinSpec("nope") != nil {
		t.Error("unknown builtin did not return nil")
	}
}

// snapshot captures the generator-owned fields of a request stream for
// bit-exact comparison.
type snapshot struct {
	ID       uint64
	App      string
	Class    uint8
	Gen      sim.Time
	Features []float64
	Service  sim.Duration
	Compute  float64
}

func capture(r *Request) snapshot {
	return snapshot{
		ID: r.ID, App: r.App, Class: r.SLOClass, Gen: r.Gen,
		Features: append([]float64(nil), r.Features...),
		Service:  r.ServiceBase, Compute: r.ComputeFrac,
	}
}

func runCohort(t *testing.T, spec *Spec, seed int64, horizon sim.Time, pool bool) []snapshot {
	t.Helper()
	e := sim.NewEngine()
	var got []snapshot
	var p *RequestPool
	if pool {
		p = &RequestPool{}
	}
	g := NewCohortGenerator(spec, seed, func(en *sim.Engine, r *Request) {
		got = append(got, capture(r))
		if p != nil {
			p.Put(r)
		}
	})
	g.Pool = p
	g.Start(e)
	e.Run(horizon)
	return got
}

func sameStream(t *testing.T, label string, a, b []snapshot) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d requests", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.App != y.App || x.Class != y.Class ||
			math.Float64bits(float64(x.Gen)) != math.Float64bits(float64(y.Gen)) ||
			math.Float64bits(float64(x.Service)) != math.Float64bits(float64(y.Service)) ||
			math.Float64bits(x.Compute) != math.Float64bits(y.Compute) ||
			len(x.Features) != len(y.Features) {
			t.Fatalf("%s: request %d differs: %+v vs %+v", label, i, x, y)
		}
		for j := range x.Features {
			if math.Float64bits(x.Features[j]) != math.Float64bits(y.Features[j]) {
				t.Fatalf("%s: request %d feature %d differs", label, i, j)
			}
		}
	}
}

// TestCohortDeterminism pins the determinism contract: the merged stream
// is a pure function of (spec, seed), pooling never changes it, and SLO
// classes land per the spec's class table.
func TestCohortDeterminism(t *testing.T) {
	spec := BuiltinSpec("slo-mix")
	a := runCohort(t, spec, 42, 4, false)
	b := runCohort(t, spec, 42, 4, false)
	if len(a) < 100 {
		t.Fatalf("only %d arrivals in 4 s, want a few hundred", len(a))
	}
	sameStream(t, "rerun", a, b)
	sameStream(t, "pooled", a, runCohort(t, spec, 42, 4, true))

	c := runCohort(t, spec, 43, 4, false)
	diff := len(a) != len(c)
	for i := 0; !diff && i < len(a); i++ {
		diff = a[i].Gen != c[i].Gen
	}
	if !diff {
		t.Error("different seeds produced an identical stream")
	}

	names, scales := spec.Classes()
	if len(names) != 3 || len(scales) != 3 {
		t.Fatalf("slo-mix classes = %v/%v, want 3", names, scales)
	}
	seen := map[uint8]int{}
	for i, s := range a {
		if int(s.Class) >= len(names) {
			t.Fatalf("request %d has class %d outside table %v", i, s.Class, names)
		}
		if s.ID != uint64(i) {
			t.Fatalf("request %d has ID %d; IDs must be arrival-ordered", i, s.ID)
		}
		seen[s.Class]++
	}
	for c := 0; c < len(names); c++ {
		if seen[uint8(c)] == 0 {
			t.Errorf("class %s got no arrivals", names[c])
		}
	}
}

// TestTraceRoundTrip pins the trace v2 contract: record → encode → decode
// → re-encode is byte-identical, the canonical SHA masks provenance, and
// replay through Player reproduces the recorded stream bit-for-bit.
func TestTraceRoundTrip(t *testing.T) {
	spec := BuiltinSpec("slo-mix")
	tr := NewTrace(spec, 42)
	var recorded []snapshot
	e := sim.NewEngine()
	g := NewCohortGenerator(spec, 42, tr.RecordSink(func(en *sim.Engine, r *Request) {
		recorded = append(recorded, capture(r))
	}))
	g.Start(e)
	e.Run(3)
	if len(tr.Records) == 0 || len(tr.Records) != len(recorded) {
		t.Fatalf("recorded %d trace records vs %d sink calls", len(tr.Records), len(recorded))
	}

	tr.Header.Provenance = TraceProvenance{GoVersion: "go-test", CPU: "cpu-a", Time: "2026-01-01T00:00:00Z"}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)

	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, buf2.Bytes()) {
		t.Fatal("decode → re-encode changed bytes")
	}

	// Canonical SHA is invariant under provenance changes…
	sha1, err := tr.SHA()
	if err != nil {
		t.Fatal(err)
	}
	back.Header.Provenance = TraceProvenance{GoVersion: "other", CPU: "cpu-b", Time: "2027-06-01T00:00:00Z"}
	sha2, err := back.SHA()
	if err != nil {
		t.Fatal(err)
	}
	if sha1 != sha2 {
		t.Error("canonical SHA depends on provenance")
	}
	// …but not under payload changes.
	back.Records[0].ComputeFrac += 1e-15
	if sha3, _ := back.SHA(); sha3 == sha1 {
		t.Error("canonical SHA missed a payload bit flip")
	}
	back.Records[0].ComputeFrac -= 1e-15

	// Replay: bit-identical stream, no RNG consumed, pooled or not.
	for _, pool := range []bool{false, true} {
		e2 := sim.NewEngine()
		var replayed []snapshot
		p := NewPlayer(back, func(en *sim.Engine, r *Request) {
			replayed = append(replayed, capture(r))
		})
		if pool {
			p.Pool = &RequestPool{}
			inner := p.Sink
			p.Sink = func(en *sim.Engine, r *Request) { inner(en, r); p.Pool.Put(r) }
		}
		p.Start(e2)
		e2.RunAll()
		sameStream(t, "replay", recorded, replayed)
	}

	// Truncation and junk must fail loudly.
	if _, err := ReadTrace(bytes.NewReader(encoded[:len(encoded)-3])); err == nil {
		t.Error("truncated trace decoded without error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"what":1}` + "\n")); err == nil {
		t.Error("non-trace JSON decoded without error")
	}
}

// TestReadTraceHostileRecordCount: the header's record count is input,
// not a promise. A negative count must be rejected and a huge one must
// not reserve memory for records the body does not hold; both end in an
// error, neither in a panic.
func TestReadTraceHostileRecordCount(t *testing.T) {
	for _, records := range []string{"-1", "100000000000"} {
		t.Run(records, func(t *testing.T) {
			hdr := `{"format":"retail-trace","version":2,"apps":["xapian"],"records":` + records + "}\n"
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadTrace(strings.NewReader(hdr))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("header decoded without error")
			}
			// The capped reservation is a few MB; the claimed count
			// would be terabytes.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("decoding a %d-byte header allocated %d bytes", len(hdr), grew)
			}
		})
	}
}

// TestTraceSingleApp: a replay source holds at least one record and
// names exactly one known app; anything else is rejected up front.
func TestTraceSingleApp(t *testing.T) {
	tr := RecordTrace(BuiltinSpec("steady-poisson"), 1, 1)
	app, err := tr.SingleApp()
	if err != nil || app.Name() != "moses" {
		t.Fatalf("SingleApp = %v, %v; want moses", app, err)
	}
	empty, twoApps, unknown := *tr, *tr, *tr
	empty.Records = nil
	twoApps.Header.Apps = []string{"moses", "xapian"}
	unknown.Header.Apps = []string{"no-such-app"}
	for name, bad := range map[string]*Trace{"no records": &empty, "two apps": &twoApps, "unknown app": &unknown} {
		if _, err := bad.SingleApp(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
