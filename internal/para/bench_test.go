package para

import (
	"runtime"
	"testing"
	"time"
)

// busy spins for about d without yielding or sleeping: a phase of real work.
func busy(d time.Duration) {
	if d == 0 {
		return
	}
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// reportBarrier reports ns/crossing over the timed region and how many
// waits per crossing took the park path.
func reportBarrier(b *testing.B, crossings int, bars ...*Barrier) {
	var parks uint64
	for _, bar := range bars {
		_, p, _ := bar.Stats()
		parks += p
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(crossings), "ns/crossing")
	b.ReportMetric(float64(parks)/float64(crossings), "parks/crossing")
}

// BenchmarkBarrierSkewed crosses a 2-party barrier b.N times with one party
// arriving late by a fixed amount of work: the shape of a DIG phase whose
// two static ranges are unequal. 0us is the tight loop galoisbench's
// para.barrier_ns probe runs; 5us and 50us are inside the spin budget, so
// the waiter should never park; 1ms is past it, so the waiter parks every
// time and ns/crossing is the delay plus one wake-up.
func BenchmarkBarrierSkewed(b *testing.B) {
	for _, c := range []struct {
		name  string
		delay time.Duration
	}{{"0us", 0}, {"5us", 5 * time.Microsecond}, {"50us", 50 * time.Microsecond}, {"1ms", time.Millisecond}} {
		b.Run(c.name, func(b *testing.B) {
			if runtime.GOMAXPROCS(0) < 2 {
				b.Skip("needs 2 Ps")
			}
			bar := NewBarrier(2)
			b.ResetTimer()
			Run(2, func(tid int) {
				for i := 0; i < b.N; i++ {
					if tid == 1 {
						busy(c.delay)
					}
					bar.WaitDo(nil)
				}
			})
			reportBarrier(b, b.N, bar)
		})
	}
}

// BenchmarkBarrierOversubscribed runs four independent 2-party barriers on
// two Ps, each party doing 20 µs of work per phase: galoisd serving four
// 2-thread jobs on a 2-CPU box. A waiter's peer may not be running at all,
// so what is measured is how fast a waiter that cannot win gives its P away.
func BenchmarkBarrierOversubscribed(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const groups = 4
	bars := make([]*Barrier, groups)
	for g := range bars {
		bars[g] = NewBarrier(2)
	}
	b.ResetTimer()
	Run(2*groups, func(tid int) {
		bar := bars[tid/2]
		for i := 0; i < b.N; i++ {
			busy(20 * time.Microsecond)
			bar.WaitDo(nil)
		}
	})
	reportBarrier(b, groups*b.N, bars...)
}
