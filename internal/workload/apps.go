package workload

import (
	"math"
	"math/rand"

	"retail/internal/sim"
)

// The seven Tailbench-analog applications. Coefficients are chosen so that
// service-time ranges, median:tail ratios and feature correlations match
// the qualitative shapes in the paper's §III characterization (Figs 2–5,
// Table II). QoS targets are set so RMSE/QoS magnitudes land near the
// paper's Tables IV–V. All are p99 targets, the paper's usual definition.

// ---------------------------------------------------------------------------
// Masstree — in-memory key-value store. Little-to-no service variation;
// memory-bound, so frequency scaling buys relatively little.

type masstree struct{}

// NewMasstree returns the Masstree-analog key-value workload.
func NewMasstree() App { return masstree{} }

func (masstree) Name() string { return "masstree" }
func (masstree) QoS() QoS     { return QoS{Latency: 1 * sim.Millisecond, Percentile: 99} }

func (masstree) FeatureSpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "op_type", Kind: Categorical, Categories: 2}, // GET/PUT: no latency impact
		{Name: "key_len", Kind: Numerical},                  // no latency impact
	}
}

func (m masstree) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	m.GenerateInto(r, rng)
	return r
}

func (m masstree) GenerateInto(r *Request, rng *rand.Rand) {
	op := float64(rng.Intn(2))
	keyLen := float64(8 + rng.Intn(56))
	base := 0.40 * sim.Millisecond * sim.Duration(lognorm(rng, 0.05))
	r.App = m.Name()
	r.Features = append(r.Features[:0], op, keyLen)
	r.ServiceBase = clampDur(base, 50*sim.Microsecond)
	r.ComputeFrac = 0.45
}

// ---------------------------------------------------------------------------
// ImgDNN — handwriting-recognition DNN. Fixed-size input tensor → constant
// service time; almost fully compute-bound.

type imgdnn struct{}

// NewImgDNN returns the ImgDNN-analog image-recognition workload.
func NewImgDNN() App { return imgdnn{} }

func (imgdnn) Name() string { return "imgdnn" }
func (imgdnn) QoS() QoS     { return QoS{Latency: 5 * sim.Millisecond, Percentile: 99} }

func (imgdnn) FeatureSpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "img_bytes", Kind: Numerical}, // fixed-size inputs: no impact
	}
}

func (a imgdnn) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	a.GenerateInto(r, rng)
	return r
}

func (a imgdnn) GenerateInto(r *Request, rng *rand.Rand) {
	imgBytes := float64(784 + rng.Intn(16)) // MNIST-like, essentially constant
	base := 2.6 * sim.Millisecond * sim.Duration(lognorm(rng, 0.03))
	r.App = a.Name()
	r.Features = append(r.Features[:0], imgBytes)
	r.ServiceBase = clampDur(base, 1*sim.Millisecond)
	r.ComputeFrac = 0.95
}

// ---------------------------------------------------------------------------
// Moses — statistical machine translation. Requests are phrases; service
// time grows with the number of words (Fig 3a). The phrase's character
// length is a decoy: per the paper, a longer word does not take longer to
// translate, so characters-per-word varies wildly (compound words,
// multi-byte scripts, whitespace padding) and the character count carries
// almost no signal beyond noise.

type moses struct{}

// NewMoses returns the Moses-analog translation workload.
func NewMoses() App { return moses{} }

func (moses) Name() string { return "moses" }
func (moses) QoS() QoS     { return QoS{Latency: 60 * sim.Millisecond, Percentile: 99} }

func (moses) FeatureSpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "phrase_chars", Kind: Numerical}, // decoy interpretation of length
		{Name: "word_count", Kind: Numerical},   // the real driver
	}
}

func (a moses) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	a.GenerateInto(r, rng)
	return r
}

func (a moses) GenerateInto(r *Request, rng *rand.Rand) {
	words := 1 + rng.Intn(40)
	// Characters dominated by per-word length variance: w·U(1,9) plus a
	// heavy independent tail.
	chars := float64(words)*(1+rng.Float64()*8) + rng.Float64()*260
	base := sim.Duration(1.8+0.58*float64(words)) * sim.Millisecond * sim.Duration(lognorm(rng, 0.04))
	r.App = a.Name()
	r.Features = append(r.Features[:0], math.Round(chars), float64(words))
	r.ServiceBase = clampDur(base, 500*sim.Microsecond)
	r.ComputeFrac = 0.80
}

// ---------------------------------------------------------------------------
// Sphinx — speech recognition. Requests reference audio files; service time
// scales with audio size (Fig 3b), while the file-path length is a decoy.

type sphinx struct{}

// NewSphinx returns the Sphinx-analog speech-recognition workload.
func NewSphinx() App { return sphinx{} }

func (sphinx) Name() string { return "sphinx" }
func (sphinx) QoS() QoS     { return QoS{Latency: 4 * sim.Second, Percentile: 99} }

func (sphinx) FeatureSpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "path_len", Kind: Numerical},                    // decoy
		{Name: "audio_mb", Kind: Numerical},                    // the real driver
		{Name: "speaker_id", Kind: Categorical, Categories: 8}, // no impact
	}
}

func (a sphinx) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	a.GenerateInto(r, rng)
	return r
}

func (a sphinx) GenerateInto(r *Request, rng *rand.Rand) {
	pathLen := float64(12 + rng.Intn(110))
	audioMB := 0.2 + rng.Float64()*1.8
	base := sim.Duration(audioMB*1.05) * sim.Second * sim.Duration(lognorm(rng, 0.06))
	r.App = a.Name()
	r.Features = append(r.Features[:0], pathLen, audioMB, float64(rng.Intn(8)))
	r.ServiceBase = clampDur(base, 50*sim.Millisecond)
	r.ComputeFrac = 0.90
}

// ---------------------------------------------------------------------------
// Xapian — web search. No request feature predicts latency; the matched-
// document count (an application feature, available after query parsing ≈5%
// into processing) does (Fig 5a). Retrieval is O(d) and sorting O(d·log d),
// giving the slightly concave scatter the paper attributes to sort time.
// A second application feature, the sorted result size, correlates
// perfectly but only materializes at ≈85% progress — feature selection must
// reject it on lateness.

type xapian struct{}

// NewXapian returns the Xapian-analog web-search workload.
func NewXapian() App { return xapian{} }

func (xapian) Name() string { return "xapian" }
func (xapian) QoS() QoS     { return QoS{Latency: 8 * sim.Millisecond, Percentile: 99} }

func (xapian) FeatureSpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "query_chars", Kind: Numerical},                  // decoy request feature
		{Name: "doc_count", Kind: Numerical, Lateness: 0.05},    // the real driver
		{Name: "sorted_bytes", Kind: Numerical, Lateness: 0.85}, // correlates but too late
	}
}

// XapianServiceMs is the ground-truth Xapian service model at max
// frequency, exported for the Table IV / Fig 8 model-fit experiments.
func XapianServiceMs(docCount float64) float64 {
	return 0.5 + 0.0040*docCount + 0.00035*docCount*math.Log1p(docCount)
}

func (a xapian) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	a.GenerateInto(r, rng)
	return r
}

func (a xapian) GenerateInto(r *Request, rng *rand.Rand) {
	queryChars := float64(3 + rng.Intn(60))
	u := rng.Float64()
	docs := math.Floor(600 * u * u) // skewed toward few matches
	base := sim.Duration(XapianServiceMs(docs)) * sim.Millisecond * sim.Duration(lognorm(rng, 0.04))
	sortedBytes := docs*96 + float64(rng.Intn(64))
	r.App = a.Name()
	r.Features = append(r.Features[:0], queryChars, docs, sortedBytes)
	r.ServiceBase = clampDur(base, 200*sim.Microsecond)
	r.ComputeFrac = 0.70
}

// ---------------------------------------------------------------------------
// Shore and Silo — TPC-C OLTP on a disk-based (Shore) and in-memory (Silo)
// engine. Request type is a categorical request feature; NEW_ORDER latency
// additionally depends on the ordered-item count (request feature) and on
// whether the transaction rolls back (application feature, known early);
// STOCK_LEVEL latency depends on the distinct-item count (application
// feature, known ≈30% in). PAYMENT and ORDER_STATUS are near-constant
// (Fig 4). Silo shares Shore's logic but runs roughly an order of magnitude
// faster (sub-millisecond), which makes per-request DVFS marginal because
// the frequency-transition latency is comparable to the service time.

// TPC-C transaction types used by the Shore/Silo workloads.
const (
	TxNewOrder = iota
	TxPayment
	TxOrderStatus
	TxStockLevel
	numTxTypes
)

// TxTypeName returns the TPC-C name of a transaction category.
func TxTypeName(t int) string {
	switch t {
	case TxNewOrder:
		return "NEW_ORDER"
	case TxPayment:
		return "PAYMENT"
	case TxOrderStatus:
		return "ORDER_STATUS"
	case TxStockLevel:
		return "STOCK_LEVEL"
	}
	return "UNKNOWN"
}

type oltp struct {
	name        string
	qos         QoS
	computeFrac float64
	// per-type base and slopes, in seconds
	noBase, noPerItem, noRollbackPerItem float64
	payBase, osBase                      float64
	slBase, slPerDistinct                float64
}

// NewShore returns the Shore-analog disk-based TPC-C workload.
func NewShore() App {
	return &oltp{
		name:        "shore",
		qos:         QoS{Latency: 12 * sim.Millisecond, Percentile: 99},
		computeFrac: 0.55,
		noBase:      1.2e-3, noPerItem: 0.22e-3, noRollbackPerItem: 0.10e-3,
		payBase: 1.1e-3, osBase: 0.9e-3,
		slBase: 1.5e-3, slPerDistinct: 0.016e-3,
	}
}

// NewSilo returns the Silo-analog in-memory TPC-C workload.
func NewSilo() App {
	return &oltp{
		name:        "silo",
		qos:         QoS{Latency: 1 * sim.Millisecond, Percentile: 99},
		computeFrac: 0.50,
		noBase:      70e-6, noPerItem: 17e-6, noRollbackPerItem: 8e-6,
		payBase: 88e-6, osBase: 72e-6,
		slBase: 120e-6, slPerDistinct: 0.9e-6,
	}
}

func (o *oltp) Name() string { return o.name }
func (o *oltp) QoS() QoS     { return o.qos }

func (o *oltp) FeatureSpecs() []FeatureSpec {
	return []FeatureSpec{
		{Name: "tx_type", Kind: Categorical, Categories: numTxTypes},
		{Name: "item_count", Kind: Numerical},                                // request feature (order lines)
		{Name: "rollback", Kind: Categorical, Categories: 2, Lateness: 0.08}, // app feature
		{Name: "distinct_items", Kind: Numerical, Lateness: 0.30},            // app feature
	}
}

func (o *oltp) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	o.GenerateInto(r, rng)
	return r
}

func (o *oltp) GenerateInto(r *Request, rng *rand.Rand) {
	// TPC-C §5.2.3 mix, folded onto the four types the paper plots.
	var tx int
	switch p := rng.Float64(); {
	case p < 0.45:
		tx = TxNewOrder
	case p < 0.88:
		tx = TxPayment
	case p < 0.92:
		tx = TxOrderStatus
	default:
		tx = TxStockLevel
	}
	var (
		items, distinct, rollback float64
		base                      float64
	)
	switch tx {
	case TxNewOrder:
		items = float64(5 + rng.Intn(11)) // TPC-C: 5–15 order lines
		if rng.Float64() < 0.01 {         // 1% user data-entry errors
			rollback = 1
		}
		base = o.noBase + o.noPerItem*items + rollback*o.noRollbackPerItem*items
	case TxPayment:
		base = o.payBase
	case TxOrderStatus:
		base = o.osBase
	case TxStockLevel:
		distinct = float64(100 + rng.Intn(201)) // distinct items in last 20 orders
		base = o.slBase + o.slPerDistinct*distinct
	}
	base *= lognorm(rng, 0.04)
	r.App = o.name
	r.Features = append(r.Features[:0], float64(tx), items, rollback, distinct)
	r.ServiceBase = clampDur(sim.Duration(base), 10*sim.Microsecond)
	r.ComputeFrac = o.computeFrac
}

// ---------------------------------------------------------------------------

// All returns the full seven-application suite in the paper's order.
func All() []App {
	return []App{
		NewMasstree(), NewImgDNN(), NewSphinx(), NewXapian(),
		NewMoses(), NewShore(), NewSilo(),
	}
}

// Names lists the seven applications in the paper's order.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name())
	}
	return names
}

// ByName returns the named application, or nil.
func ByName(name string) App {
	for _, a := range All() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}
