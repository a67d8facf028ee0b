package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkQueue measures the event heap in steady churn: each step
// schedules one event and fires whatever falls due, holding the queue at
// a fixed size while the clock advances.
//
// The hold-N cases draw uniform exponential times. fleetShape is the
// traffic a fleet run produces: about 70 events churning at millisecond
// gaps under one measurement event seconds ahead (fleet.measure,
// core.measure). The uniform cases alone once hid a calendar queue's
// worst case from this benchmark: on fleet traffic the far event
// stretched one calendar day over every pending event, so each pop
// scanned them all.
func BenchmarkQueue(b *testing.B) {
	cases := []struct {
		name string
		hold int
		mean Duration // mean gap from now to a scheduled event
		far  bool     // keep one self-re-arming event 5 s ahead
	}{
		{"hold64", 64, 1, false},
		{"hold1k", 1024, 1, false},
		{"hold32k", 32768, 1, false},
		{"fleetShape", 70, 70 * Millisecond, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			rng := rand.New(rand.NewSource(1))
			fn := func(*Engine) {}
			hold := c.hold
			if c.far {
				var measure func(*Engine)
				measure = func(en *Engine) { en.After(5*Second, "measure", measure) }
				e.After(5*Second, "measure", measure)
				hold++
			}
			for i := 0; i < c.hold; i++ {
				e.After(Duration(rng.ExpFloat64())*c.mean, "h", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(Duration(rng.ExpFloat64())*c.mean, "h", fn)
				e.Run(e.Now()) // fire everything due now
				for e.Pending() > hold {
					e.Run(e.Now() + Duration(rng.ExpFloat64()*1e-3)*c.mean)
				}
			}
		})
	}
}
