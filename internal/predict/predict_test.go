package predict

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"retail/internal/cpu"
	"retail/internal/nn"
	"retail/internal/workload"
)

// fillSet populates a training set with samples from app across all levels
// of the grid, computing the true service time at each level (no
// interference). This mimics the paper's calibration sweep.
func fillSet(app workload.App, grid *cpu.Grid, perLevel int, seed int64) *TrainingSet {
	rng := rand.New(rand.NewSource(seed))
	set := NewTrainingSet(perLevel)
	for lvl := cpu.Level(0); int(lvl) < grid.Levels(); lvl++ {
		for i := 0; i < perLevel; i++ {
			r := app.Generate(rng)
			set.Add(Sample{
				Level:    lvl,
				Features: r.Features,
				Service:  float64(r.ServiceAt(grid.Freq(lvl), grid.MaxFreq(), 1)),
			})
		}
	}
	return set
}

func layoutFor(app workload.App, names ...string) FeatureLayout {
	l := FeatureLayout{Specs: app.FeatureSpecs()}
	for _, n := range names {
		l.Selected = append(l.Selected, workload.FeatureIndex(app, n))
	}
	return l
}

func TestTrainingSetRing(t *testing.T) {
	set := NewTrainingSet(3)
	for i := 0; i < 5; i++ {
		set.Add(Sample{Level: 0, Features: []float64{float64(i)}, Service: float64(i)})
	}
	if set.CountAt(0) != 3 {
		t.Fatalf("count = %d, want 3", set.CountAt(0))
	}
	ss := set.At(0)
	if ss[0].Service != 2 || ss[2].Service != 4 {
		t.Fatalf("ring kept %v..%v, want 2..4", ss[0].Service, ss[2].Service)
	}
	if set.Total() != 3 {
		t.Fatalf("total = %d", set.Total())
	}
	set.Add(Sample{Level: 1, Service: 9})
	if set.Total() != 4 || set.CountAt(1) != 1 {
		t.Fatal("second level not tracked")
	}
	if len(set.All()) != 4 {
		t.Fatalf("All() = %d", len(set.All()))
	}
	set.Clear()
	if set.Total() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestTrainingSetDefaultCap(t *testing.T) {
	set := NewTrainingSet(0)
	for i := 0; i < 1500; i++ {
		set.Add(Sample{Level: 0, Service: 1})
	}
	if set.CountAt(0) != 1000 {
		t.Fatalf("default cap = %d, want 1000 (the paper's N)", set.CountAt(0))
	}
}

// TestTrainingSetAllLevelOrder pins the iteration order every float sum
// over the set depends on: All (and a clone's All) lists levels in
// ascending order, oldest sample first within a level, whatever order
// the levels were first filled in; a level never filled is simply absent.
func TestTrainingSetAllLevelOrder(t *testing.T) {
	set := NewTrainingSet(2)
	for _, s := range []Sample{
		{Level: 3, Service: 30}, {Level: 0, Service: 1}, {Level: 3, Service: 31},
		{Level: 2, Service: 20}, {Level: 3, Service: 32}, // level 3 wraps: keeps 31, 32
	} {
		s.Features = []float64{s.Service}
		set.Add(s)
	}
	services := func(ss []Sample) []float64 {
		var out []float64
		for _, s := range ss {
			out = append(out, s.Service)
		}
		return out
	}
	want := []float64{1, 20, 31, 32}
	check := func(what string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
	}
	check("All", services(set.All()))
	if set.Total() != 4 || set.CountAt(1) != 0 || set.At(1) != nil || set.CountAt(7) != 0 {
		t.Fatalf("Total=%d CountAt(1)=%d At(1)=%v CountAt(7)=%d", set.Total(), set.CountAt(1), set.At(1), set.CountAt(7))
	}
	c := set.Clone()
	check("Clone().All", services(c.All()))
	// Copy-on-write in both directions: neither side sees the other's Adds.
	c.Add(Sample{Level: 0, Features: []float64{2}, Service: 2})
	set.Add(Sample{Level: 2, Features: []float64{21}, Service: 21})
	want = []float64{1, 20, 21, 31, 32}
	check("parent All", services(set.All()))
	want = []float64{1, 2, 20, 31, 32}
	check("clone All", services(c.All()))
}

// TestTrainingSetConcurrentClone is the fleet fan-out's use of one shared
// calibration set: several goroutines clone it at once while it is read,
// and each fills its own clone. Run under -race; every clone must end up
// with the shared samples plus only its own.
func TestTrainingSetConcurrentClone(t *testing.T) {
	set := NewTrainingSet(4)
	for i := 0; i < 12; i++ {
		set.Add(Sample{Level: cpu.Level(i % 3), Features: []float64{float64(i)}, Service: float64(i)})
	}
	var wg sync.WaitGroup
	clones := make([]*TrainingSet, 4)
	for g := range clones {
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := set.Clone()
			for i := 0; i < 10; i++ {
				v := float64(100 * (g + 1))
				c.Add(Sample{Level: cpu.Level(i % 4), Features: []float64{v}, Service: v})
			}
			clones[g] = c
		}()
		go func() {
			defer wg.Done()
			if n := len(set.All()); n != 12 {
				t.Errorf("shared set read %d samples, want 12", n)
			}
		}()
	}
	wg.Wait()
	if set.Total() != 12 {
		t.Fatalf("shared set holds %d samples after cloning, want 12", set.Total())
	}
	for g, c := range clones {
		if c.Total() != 14 { // levels 0-2 stay full at 4; level 3 gets 2
			t.Fatalf("clone %d holds %d samples, want 14", g, c.Total())
		}
		for _, s := range c.All() {
			if s.Service >= 100 && s.Service != float64(100*(g+1)) {
				t.Fatalf("clone %d holds clone sample %v", g, s.Service)
			}
		}
	}
}

func TestFitLinearValidation(t *testing.T) {
	if _, err := FitLinear(NewTrainingSet(10), FeatureLayout{}, 12); err == nil {
		t.Fatal("empty set accepted")
	}
	set := NewTrainingSet(10)
	set.Add(Sample{Level: 0, Features: []float64{1}, Service: 1})
	if _, err := FitLinear(set, FeatureLayout{}, 0); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestLinearRecoversMosesModel(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 1)
	layout := layoutFor(app, "word_count")
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	// Held-out accuracy at two levels.
	test := fillSet(app, grid, 200, 99)
	for _, lvl := range []cpu.Level{0, 11} {
		met, err := Evaluate(m, test.At(lvl))
		if err != nil {
			t.Fatal(err)
		}
		if met.R2 < 0.95 {
			t.Fatalf("level %d R² = %v", lvl, met.R2)
		}
		// RMSE/QoS well under the Table-IV ballpark (≈3%).
		if met.RMSE/float64(app.QoS().Latency) > 0.06 {
			t.Fatalf("level %d RMSE/QoS = %v", lvl, met.RMSE/float64(app.QoS().Latency))
		}
	}
	if m.TrainDuration <= 0 {
		t.Fatal("TrainDuration not recorded")
	}
}

func TestLinearPerFrequencyBeatsProportionalScaling(t *testing.T) {
	// Masstree is memory-bound (ComputeFrac 0.45): at fmin, true service
	// is ~1.55× the fmax service, not 2.1×. The per-level model must track
	// that; a proportional scaler must not.
	app := workload.NewMasstree()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 2)
	m, err := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := app.Generate(rng)
	trueMin := float64(r.ServiceAt(grid.MinFreq(), grid.MaxFreq(), 1))
	predMin := m.Predict(0, r.Features)
	proportional := m.Predict(grid.MaxLevel(), r.Features) * grid.MaxFreq() / grid.MinFreq()
	if math.Abs(predMin-trueMin)/trueMin > 0.10 {
		t.Fatalf("per-level prediction off: %v vs true %v", predMin, trueMin)
	}
	if math.Abs(proportional-trueMin)/trueMin < 0.15 {
		t.Fatalf("proportional scaling unexpectedly accurate (%v vs %v) — workload not memory-bound enough",
			proportional, trueMin)
	}
}

func TestLinearCategoricalCombos(t *testing.T) {
	// Shore: tx_type × rollback combos with item counts. Verify distinct
	// combos produce distinct, sensible predictions.
	app := workload.NewShore()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 1500, 4)
	layout := layoutFor(app, "tx_type", "item_count", "rollback", "distinct_items")
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	if layout.Combos() != 8 { // 4 types × 2 rollback
		t.Fatalf("combos = %d", layout.Combos())
	}
	lvl := grid.MaxLevel()
	// NEW_ORDER with more items takes longer.
	few := m.Predict(lvl, []float64{workload.TxNewOrder, 5, 0, 0})
	many := m.Predict(lvl, []float64{workload.TxNewOrder, 15, 0, 0})
	if many <= few {
		t.Fatalf("item_count slope lost: 5→%v, 15→%v", few, many)
	}
	// Rollback costs extra.
	rb := m.Predict(lvl, []float64{workload.TxNewOrder, 10, 1, 0})
	norm := m.Predict(lvl, []float64{workload.TxNewOrder, 10, 0, 0})
	if rb <= norm {
		t.Fatalf("rollback not costed: %v vs %v", rb, norm)
	}
	// STOCK_LEVEL scales with distinct items.
	lo := m.Predict(lvl, []float64{workload.TxStockLevel, 0, 0, 100})
	hi := m.Predict(lvl, []float64{workload.TxStockLevel, 0, 0, 300})
	if hi <= lo {
		t.Fatalf("distinct_items slope lost: %v vs %v", lo, hi)
	}
	// Held-out accuracy.
	met, err := Evaluate(m, fillSet(app, grid, 300, 98).At(lvl))
	if err != nil {
		t.Fatal(err)
	}
	if met.R2 < 0.9 {
		t.Fatalf("Shore R² = %v", met.R2)
	}
}

func TestLinearConstantAppUsesMeans(t *testing.T) {
	// No selected features: the model is a per-level mean table.
	app := workload.NewImgDNN()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 300, 5)
	m, err := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	r := app.Generate(rng)
	for _, lvl := range []cpu.Level{0, 6, 11} {
		truth := float64(r.ServiceAt(grid.Freq(lvl), grid.MaxFreq(), 1))
		pred := m.Predict(lvl, r.Features)
		if math.Abs(pred-truth)/truth > 0.12 {
			t.Fatalf("level %d: pred %v vs true %v", lvl, pred, truth)
		}
	}
}

func TestLinearPredictClampsLevel(t *testing.T) {
	app := workload.NewImgDNN()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 100, 7)
	m, _ := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	r := app.Generate(rand.New(rand.NewSource(8)))
	if p := m.Predict(-5, r.Features); p != m.Predict(0, r.Features) {
		t.Fatal("negative level not clamped")
	}
	if p := m.Predict(99, r.Features); p != m.Predict(11, r.Features) {
		t.Fatal("overflow level not clamped")
	}
}

func TestLinearFallbackChain(t *testing.T) {
	// Samples only at level 3; predictions at other levels fall back to
	// level/global means rather than failing.
	app := workload.NewMoses()
	set := NewTrainingSet(100)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		r := app.Generate(rng)
		set.Add(Sample{Level: 3, Features: r.Features, Service: float64(r.ServiceBase)})
	}
	m, err := FitLinear(set, layoutFor(app, "word_count"), 12)
	if err != nil {
		t.Fatal(err)
	}
	r := app.Generate(rng)
	if p := m.Predict(7, r.Features); p <= 0 {
		t.Fatalf("fallback prediction = %v", p)
	}
}

func TestCoefficientsExplainability(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 10)
	m, _ := FitLinear(set, layoutFor(app, "word_count"), grid.Levels())
	beta, ok := m.Coefficients(0, int(grid.MaxLevel()))
	if !ok {
		t.Fatal("no coefficients for the only combo at max level")
	}
	// Ground truth at fmax: service = 1.8ms + 0.58ms·words (± noise).
	if math.Abs(beta[1]-0.58e-3) > 0.05e-3 {
		t.Fatalf("slope = %v, want ≈0.58ms/word", beta[1])
	}
	if math.Abs(beta[0]-1.8e-3) > 0.4e-3 {
		t.Fatalf("intercept = %v, want ≈1.8ms", beta[0])
	}
	if _, ok := m.Coefficients(99, 0); ok {
		t.Fatal("out-of-range combo returned coefficients")
	}
}

func TestFitNN(t *testing.T) {
	app := workload.NewXapian()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 400, 11)
	idx := []int{workload.FeatureIndex(app, "doc_count")}
	cfg := nn.TunedConfig(1, 1, 16, 60, 32)
	m, err := FitNN(set, grid, cfg, grid.MaxLevel(), idx)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m, fillSet(app, grid, 200, 97).At(grid.MaxLevel()))
	if err != nil {
		t.Fatal(err)
	}
	if met.R2 < 0.9 {
		t.Fatalf("NN R² = %v at reference level", met.R2)
	}
	if m.TrainDuration <= 0 {
		t.Fatal("NN TrainDuration missing")
	}
}

func TestNNProportionalScalingIsWrongForMemoryBound(t *testing.T) {
	// The NN predictor scales latency ∝ 1/f. For Masstree (ComputeFrac
	// 0.45) that overestimates low-frequency service times.
	app := workload.NewMasstree()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 400, 12)
	idx := []int{0, 1}
	m, err := FitNN(set, grid, nn.TunedConfig(2, 1, 8, 40, 32), grid.MaxLevel(), idx)
	if err != nil {
		t.Fatal(err)
	}
	r := app.Generate(rand.New(rand.NewSource(13)))
	truth := float64(r.ServiceAt(grid.MinFreq(), grid.MaxFreq(), 1))
	pred := m.Predict(0, r.Features)
	if pred < truth*1.15 {
		t.Fatalf("NN @fmin predicted %v vs true %v — expected systematic overestimate", pred, truth)
	}
}

func TestFitNNValidation(t *testing.T) {
	grid := cpu.DefaultGrid()
	set := NewTrainingSet(10)
	if _, err := FitNN(set, grid, nn.TunedConfig(1, 1, 4, 5, 8), 0, []int{0}); err == nil {
		t.Fatal("empty reference level accepted")
	}
	set.Add(Sample{Level: 0, Features: []float64{1}, Service: 1})
	if _, err := FitNN(set, grid, nn.TunedConfig(1, 1, 4, 5, 8), 0, nil); err == nil {
		t.Fatal("no input features accepted")
	}
}

func TestEvaluateTooFew(t *testing.T) {
	app := workload.NewImgDNN()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 50, 14)
	m, _ := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if _, err := Evaluate(m, nil); err == nil {
		t.Fatal("empty evaluation accepted")
	}
	if _, err := Evaluate(m, set.At(0)[:1]); err == nil {
		t.Fatal("single-sample evaluation accepted")
	}
}

func TestDriftDetector(t *testing.T) {
	d := NewDriftDetector(10e-3, 0.05, 100)
	d.SetBaseline(0.03)
	// Healthy predictions: error ≈ 0.2ms → RMSE/QoS = 0.02 < baseline+thr.
	for i := 0; i < 100; i++ {
		d.Observe(5e-3, 5.2e-3)
	}
	if cur, ok := d.Current(); !ok || math.Abs(cur-0.02) > 1e-9 {
		t.Fatalf("current = %v, %v", cur, ok)
	}
	if d.Drifted() {
		t.Fatal("healthy state flagged as drift")
	}
	// Interference: errors jump to 1.5ms → RMSE/QoS 0.15 > 0.03+0.05.
	for i := 0; i < 100; i++ {
		d.Observe(5e-3, 6.5e-3)
	}
	if !d.Drifted() {
		t.Fatal("drift not detected")
	}
	d.Reset()
	if _, ok := d.Current(); ok {
		t.Fatal("window not cleared")
	}
}

func TestDriftDetectorOnDriftFiresOncePerEpisode(t *testing.T) {
	d := NewDriftDetector(10e-3, 0.05, 100)
	d.SetBaseline(0.03)
	fires := 0
	d.OnDrift(func() { fires++ })
	drive := func() {
		for i := 0; i < 100; i++ {
			d.Observe(5e-3, 6.5e-3) // RMSE/QoS 0.15 ≫ baseline+threshold
		}
	}
	drive()
	for i := 0; i < 5; i++ {
		if !d.Drifted() {
			t.Fatal("drift not detected")
		}
	}
	if fires != 1 {
		t.Fatalf("OnDrift fired %d times within one episode, want 1", fires)
	}
	// Reset (as a retrain does) re-arms the notification for the next
	// episode.
	d.Reset()
	drive()
	if !d.Drifted() || fires != 2 {
		t.Fatalf("after reset: drifted=%v fires=%d, want true/2", d.Drifted(), fires)
	}
}

func TestDriftDetectorNeedsBaselineAndData(t *testing.T) {
	d := NewDriftDetector(1, 0.05, 100)
	d.Observe(1, 2)
	if d.Drifted() {
		t.Fatal("drift without baseline")
	}
	d.SetBaseline(0)
	// Window only 1/100 full: not enough data.
	if d.Drifted() {
		t.Fatal("drift with insufficient window")
	}
}

func TestDriftDetectorDefaults(t *testing.T) {
	d := NewDriftDetector(1, 0, 0)
	if d.Threshold != 0.05 || len(d.errs) != 200 {
		t.Fatalf("defaults = %v/%d", d.Threshold, len(d.errs))
	}
}

// Property: LinearModel predictions are finite and positive for arbitrary
// in-range inputs across all apps.
func TestLinearPredictionsSane(t *testing.T) {
	grid := cpu.DefaultGrid()
	models := map[string]*LinearModel{}
	layouts := map[string]FeatureLayout{
		"moses":  layoutFor(workload.NewMoses(), "word_count"),
		"shore":  layoutFor(workload.NewShore(), "tx_type", "item_count", "rollback", "distinct_items"),
		"xapian": layoutFor(workload.NewXapian(), "doc_count"),
	}
	for name, layout := range layouts {
		set := fillSet(workload.ByName(name), grid, 400, 15)
		m, err := FitLinear(set, layout, grid.Levels())
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for name, m := range models {
			r := workload.ByName(name).Generate(rng)
			lvl := cpu.Level(rng.Intn(grid.Levels()))
			p := m.Predict(lvl, r.Features)
			if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are monotone non-increasing in frequency level for
// compute-bearing workloads (higher frequency never predicts longer
// service), given dense training data.
func TestLinearMonotoneAcrossLevels(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 800, 16)
	m, err := FitLinear(set, layoutFor(app, "word_count"), grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := app.Generate(rng)
		prev := math.Inf(1)
		for lvl := cpu.Level(0); int(lvl) < grid.Levels(); lvl++ {
			p := m.Predict(lvl, r.Features)
			if p > prev*1.02 { // 2% tolerance for fit noise
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLinearPredict(b *testing.B) {
	app := workload.NewShore()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 17)
	layout := FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{0, 1, 2, 3}}
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		b.Fatal(err)
	}
	feats := []float64{workload.TxNewOrder, 10, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(cpu.Level(i%12), feats)
	}
}

func BenchmarkFitLinear1000(b *testing.B) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 1000, 18)
	layout := layoutFor(app, "word_count")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(set, layout, grid.Levels()); err != nil {
			b.Fatal(err)
		}
	}
}
