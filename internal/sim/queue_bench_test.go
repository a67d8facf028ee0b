package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkQueue compares the two queue implementations head to head on
// the shapes that matter: the sparse schedule→fire cycle, steady-state
// churn while holding N pending events (the fleet simulator's regime), and
// schedule→cancel. The winner of the hold-N columns is NewEngine's default.
func BenchmarkQueue(b *testing.B) {
	for _, k := range QueueKinds() {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			b.Run("afterFire", func(b *testing.B) {
				e := NewEngineWithQueue(k)
				fn := func(*Engine) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.After(1, "b", fn)
					e.RunAll()
				}
			})
			for _, hold := range []int{64, 1024, 32768} {
				hold := hold
				b.Run(holdName(hold), func(b *testing.B) {
					e := NewEngineWithQueue(k)
					rng := rand.New(rand.NewSource(1))
					fn := func(*Engine) {}
					for i := 0; i < hold; i++ {
						e.After(Duration(rng.ExpFloat64()), "h", fn)
					}
					b.ReportAllocs()
					b.ResetTimer()
					// Replace the minimum with a fresh arrival each step:
					// queue size stays at hold, clock advances.
					for i := 0; i < b.N; i++ {
						e.After(Duration(rng.ExpFloat64()), "h", fn)
						e.Run(e.Now()) // fire everything due now
						for e.Pending() > hold {
							e.Run(e.Now() + Duration(rng.ExpFloat64()*1e-3))
						}
					}
				})
			}
			b.Run("scheduleCancel", func(b *testing.B) {
				e := NewEngineWithQueue(k)
				fn := func(*Engine) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := e.After(1, "b", fn)
					e.Cancel(ev)
				}
			})
		})
	}
}

func holdName(n int) string {
	switch n {
	case 64:
		return "hold64"
	case 1024:
		return "hold1k"
	default:
		return "hold32k"
	}
}
