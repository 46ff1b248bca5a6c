package dt

import (
	"testing"

	"galois"
)

// TestScalingGN bounds how much association work the speculative variant
// does per insertion: at one thread a g-n run's schedule, and so the number
// of associated points its commits move, is a pure function of the input.
// Per doubling of the input it may grow by at most 1.25×. With the FIFO
// hint it grows by about 1.1× (16.1 → 18.0 → 20.5 → 23.3 from 2 000 to
// 16 000 points); under LIFO, which inserts the finest BRIO round first, by
// about 1.45× (66 → 96 → 143 → 200).
func TestScalingGN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2000, 4000, 8000, 16000} {
		r, moved := galoisMoved(testPoints(n), testSeed, galois.WithThreads(1))
		perInsertion := float64(moved) / float64(r.Inserted)
		t.Logf("n=%d: %d inserted, %.1f association points moved per insertion", n, r.Inserted, perInsertion)
		if r.Stats.Aborts != 0 {
			t.Fatalf("n=%d: %d aborts at one thread", n, r.Stats.Aborts)
		}
		if prev > 0 && perInsertion > 1.25*prev {
			t.Fatalf("superlinear association: n=%d moves %.1f points per insertion, %.1f at half the size", n, perInsertion, prev)
		}
		prev = perInsertion
	}
}
