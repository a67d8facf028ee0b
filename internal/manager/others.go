package manager

import (
	"sort"

	"retail/internal/cpu"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// ---------------------------------------------------------------------------
// MaxFreq — the default system: every core at maximum frequency, no
// management. The experiments' power denominator.

// MaxFreq pins all cores at the top frequency.
type MaxFreq struct {
	server.NoopHooks
}

// NewMaxFreq returns the no-op baseline.
func NewMaxFreq() *MaxFreq { return &MaxFreq{} }

func (m *MaxFreq) Name() string { return "maxfreq" }

// Attach implements Manager.
func (m *MaxFreq) Attach(e *sim.Engine, s *server.Server) {
	for _, c := range s.Socket.Cores {
		c.SetLevelImmediate(e, c.Grid().MaxLevel())
	}
	s.Hooks = m
}

// ---------------------------------------------------------------------------
// Adrenaline — classification-based fine-grained baseline (§II): requests
// are classified short/long from a single request feature threshold; long
// requests run at max frequency from the start, short requests at a fixed
// low frequency. Its weakness, which the paper's decomposition (Fig 12)
// shows: it cannot rank requests within a class, so the whole long class
// is boosted when only the longest members needed it.

// Adrenaline classifies requests with a feature threshold.
type Adrenaline struct {
	server.NoopHooks
	qos  workload.QoS
	grid *cpu.Grid

	// FeatureIdx is the request feature used for classification; negative
	// means "no usable feature" and everything is long.
	FeatureIdx int
	// Threshold splits short from long on that feature's value.
	Threshold float64
	// ShortLevel is the fixed level for short requests.
	ShortLevel cpu.Level

	longCount, shortCount int
}

// NewAdrenaline derives the classifier from profiled requests: the given
// request feature's threshold is set at the quantile of its value
// distribution, and the short-class frequency at the lowest level whose
// scaled short-class tail still fits comfortably within QoS.
func NewAdrenaline(qos workload.QoS, grid *cpu.Grid, featureIdx int, featureValues, services []float64) *Adrenaline {
	a := &Adrenaline{qos: qos, grid: grid, FeatureIdx: featureIdx, ShortLevel: grid.MaxLevel() / 2}
	if featureIdx < 0 || len(featureValues) == 0 {
		a.FeatureIdx = -1
		return a
	}
	vals := make([]float64, len(featureValues))
	copy(vals, featureValues)
	sort.Float64s(vals)
	a.Threshold = stats.PercentileSorted(vals, 75)
	// Short-class service tail at max frequency.
	var short []float64
	for i, v := range featureValues {
		if v < a.Threshold && i < len(services) {
			short = append(short, services[i])
		}
	}
	if len(short) > 0 {
		tail := stats.Percentile(short, 95)
		for lvl := cpu.Level(0); lvl <= grid.MaxLevel(); lvl++ {
			scaled := tail * grid.MaxFreq() / grid.Freq(lvl)
			if scaled*2 <= float64(qos.Latency) { // headroom for queueing
				a.ShortLevel = lvl
				break
			}
		}
	}
	return a
}

func (m *Adrenaline) Name() string { return "adrenaline" }

// Attach implements Manager.
func (m *Adrenaline) Attach(e *sim.Engine, s *server.Server) {
	m.grid = s.Socket.Cores[0].Grid()
	s.Hooks = m
}

// Classified returns (short, long) request counts.
func (m *Adrenaline) Classified() (short, long int) { return m.shortCount, m.longCount }

// Start implements server.Hooks.
func (m *Adrenaline) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	long := true
	if m.FeatureIdx >= 0 && m.FeatureIdx < len(r.Features) {
		long = r.Features[m.FeatureIdx] >= m.Threshold
	}
	if long {
		m.longCount++
		w.Core().SetLevel(e, m.grid.MaxLevel())
	} else {
		m.shortCount++
		w.Core().SetLevel(e, m.ShortLevel)
	}
}

// ---------------------------------------------------------------------------
// Pegasus — coarse-grained application-level controller (§II): one
// frequency for the whole application, adjusted periodically from measured
// tail-latency slack. It adapts to load shifts but cannot differentiate
// requests, leaving per-request savings on the table (Fig 12's
// application-granularity line).

// Pegasus adjusts a single socket-wide frequency from tail slack.
type Pegasus struct {
	server.NoopHooks
	qos  workload.QoS
	grid *cpu.Grid
	srv  *server.Server

	// Interval is the control period (default 100 ms).
	Interval sim.Duration
	// LowerBelow relaxes frequency when the tail is under this fraction of
	// QoS; a tail above QoS raises it.
	LowerBelow float64

	level  cpu.Level
	window []float64 // sojourns completed since the last tick
}

// pegasusWindow caps the samples one tick's tail is taken over: at high
// load a 100 ms tick completes more requests than this, and only the
// most recent count.
const pegasusWindow = 4096

// NewPegasus returns the controller starting at max frequency.
func NewPegasus(qos workload.QoS) *Pegasus {
	return &Pegasus{
		qos:        qos,
		Interval:   100 * sim.Millisecond,
		LowerBelow: 0.7,
	}
}

func (m *Pegasus) Name() string { return "pegasus" }

// Level returns the current socket-wide level.
func (m *Pegasus) Level() cpu.Level { return m.level }

// Attach implements Manager.
func (m *Pegasus) Attach(e *sim.Engine, s *server.Server) {
	m.srv = s
	m.grid = s.Socket.Cores[0].Grid()
	m.level = m.grid.MaxLevel()
	s.Hooks = m
	m.tick(e)
}

func (m *Pegasus) tick(e *sim.Engine) {
	e.After(m.Interval, "pegasus.tick", func(en *sim.Engine) {
		if n := len(m.window); n > 0 {
			tail := stats.PercentileInPlace(m.window[max(0, n-pegasusWindow):], m.qos.Percentile)
			target := float64(m.qos.Latency)
			switch {
			case tail > target:
				m.level = m.grid.MaxLevel() // violation: jump to max
			case tail > m.LowerBelow*target:
				m.level = m.grid.Clamp(m.level + 1)
			default:
				m.level = m.grid.Clamp(m.level - 1)
			}
			for _, c := range m.srv.Socket.Cores {
				c.SetLevel(en, m.level)
			}
		}
		m.window = m.window[:0]
		m.tick(en)
	})
}

// Complete implements server.Hooks.
func (m *Pegasus) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	m.window = append(m.window, float64(r.Sojourn()))
}
