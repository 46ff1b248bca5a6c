package para

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// finishes runs fn on a goroutine of its own and reports whether it returned
// within a minute: the alarm for a lost wake-up, which would otherwise hang
// the test binary until go test's own timeout.
func finishes(fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-time.After(time.Minute):
		return false
	}
}

// crossPhases drives a barrier through `phases` crossings with a counting
// callback, party `late` (if >= 0) arriving `delay` after the others, and
// fails the test if a party is ever released early, a callback runs twice,
// or the parties do not finish.
func crossPhases(t *testing.T, b *Barrier, parties, phases, late int, delay time.Duration) {
	t.Helper()
	serial := 0 // written only by callbacks
	if !finishes(func() {
		Run(parties, func(tid int) {
			for p := 0; p < phases; p++ {
				if tid == late {
					busy(delay)
				}
				b.WaitDo(func() { serial++ })
				if serial != p+1 {
					t.Errorf("tid %d phase %d: serial = %d, want %d", tid, p, serial, p+1)
					return
				}
			}
		})
	}) {
		c, p, w := b.Stats()
		t.Fatalf("barrier hung: %d of %d crossings, %d parks, %d ns waited", c, phases, p, w)
	}
}

// TestBarrierSkewedArrival is the wait policy's contract. A party that
// arrives late by less than the spin budget never costs its peers a park;
// one that arrives late by far more than the budget costs each peer one
// budget and then a park, every phase; and no timing loses a wake-up. Where
// parties outnumber processors every wait parks, whatever the delay.
//
// The two timing-dependent bounds hold whenever the box really gives the
// parties a processor each. A shared 2-vCPU host does not always (least of
// all in a process's first second, or while `go test` runs another package
// beside this one), so they are loose and get a few attempts.
func TestBarrierSkewedArrival(t *testing.T) {
	for _, parties := range []int{2, 4} {
		oversub := runtime.GOMAXPROCS(0) < parties || runtime.NumCPU() < parties
		for _, c := range []struct {
			delay  time.Duration
			phases int
		}{{0, 10_000}, {10 * time.Microsecond, 10_000}, {2 * time.Millisecond, 200}} {
			t.Run(fmt.Sprintf("p%d/%v", parties, c.delay), func(t *testing.T) {
				waits := uint64(c.phases * (parties - 1))
				var complaint string
				for attempt := 0; attempt < 8; attempt++ {
					b := NewBarrier(parties)
					crossPhases(t, b, parties, c.phases, parties-1, c.delay)
					crossings, parks, waitNS := b.Stats()
					if crossings != uint64(c.phases) {
						t.Fatalf("crossings = %d, want %d", crossings, c.phases)
					}
					switch {
					case oversub:
						if parks != waits {
							t.Fatalf("oversubscribed: %d parks for %d waits, want every wait parked", parks, waits)
						}
						return
					case c.delay < time.Duration(spinBudget):
						// Waits longer than the budget still happen whenever a
						// party is descheduled — a tenth of them, with another
						// package's tests on the same two CPUs. Half is far
						// above that and far below a policy that parks for a
						// 10 µs skew, which parks every time.
						if parks <= waits/2 {
							return
						}
						complaint = fmt.Sprintf("%d parks in %d waits with a %v skew: waiters are not spinning", parks, waits, c.delay)
					default:
						// The late party is last unless the host delays a
						// peer by even more, so nearly every wait outlasts
						// its budget, and was timed for at least that long.
						if parks >= waits/2 && waitNS >= int64(parks)*spinBudget {
							return
						}
						complaint = fmt.Sprintf("%d parks and %d ns waited in %d waits with a %v skew: want a budget (%d ns) and a park each",
							parks, waitNS, waits, c.delay, spinBudget)
					}
				}
				t.Error(complaint)
			})
		}
	}
}

// TestBarrierCallbackForkJoin is endGeneration's shape: the callback runs a
// fork-join over as many goroutines as there are processors while every
// other party is inside the barrier, spinning. The spinners yield, so the
// forked goroutines run and the callback returns.
func TestBarrierCallbackForkJoin(t *testing.T) {
	for _, parties := range []int{2, 4} {
		t.Run(fmt.Sprint(parties), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parties))
			const phases, n = 2000, 1 << 10
			b := NewBarrier(parties)
			sums := make([]int, parties)
			total := 0
			fork := func() {
				ForBlocked(parties, n, func(tid, lo, hi int) {
					for i := lo; i < hi; i++ {
						sums[tid] += i
					}
				})
				for tid := range sums {
					total += sums[tid]
					sums[tid] = 0
				}
			}
			if !finishes(func() {
				Run(parties, func(int) {
					for p := 0; p < phases; p++ {
						b.WaitDo(fork)
					}
				})
			}) {
				t.Fatal("fork-join inside a barrier callback did not finish")
			}
			if want := phases * (n * (n - 1) / 2); total != want {
				t.Fatalf("total = %d, want %d", total, want)
			}
		})
	}
}

// TestBarrierParksAtOnceWhenOversubscribed pins DESIGN §9.3's guarantee:
// with one processor for four parties no waiter enters the spin loop. Every
// wait takes the park path, so parks is exactly waits; a waiter that spun
// (and yielded its way to the release) would leave the count short.
func TestBarrierParksAtOnceWhenOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const parties, phases = 4, 2000
	b := NewBarrier(parties)
	crossPhases(t, b, parties, phases, -1, 0)
	if _, parks, _ := b.Stats(); parks != phases*(parties-1) {
		t.Fatalf("parks = %d, want %d (one per wait)", parks, phases*(parties-1))
	}
}

// TestBarrierResample: the verdict is sampled, not read per crossing, so a
// retained barrier follows GOMAXPROCS through Resample (what a checkout
// calls) — and, without it, through the first waiter that parks.
func TestBarrierResample(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs: on one, a 2-party barrier is always oversubscribed")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := NewBarrier(2)
	if b.oversub.Load() {
		t.Fatal("2 parties on 2 processors sampled as oversubscribed")
	}
	runtime.GOMAXPROCS(1)
	b.Resample()
	if !b.oversub.Load() {
		t.Fatal("Resample missed GOMAXPROCS 2 -> 1")
	}
	const phases = 500
	crossPhases(t, b, 2, phases, -1, 0)
	if _, parks, _ := b.Stats(); parks != phases {
		t.Fatalf("parks = %d, want %d after the flip", parks, phases)
	}
	// Back to two processors with no checkout in between: the barrier still
	// believes it is oversubscribed, so the first waiter parks — and
	// re-samples on its way, after which waiters spin again.
	runtime.GOMAXPROCS(2)
	crossPhases(t, b, 2, phases, -1, 0)
	if b.oversub.Load() {
		t.Fatal("park path did not re-sample GOMAXPROCS 1 -> 2")
	}
}
