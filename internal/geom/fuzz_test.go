package geom

import (
	"math"
	"testing"
)

// FuzzOrientConsistency checks predicate invariants on arbitrary float
// inputs: antisymmetry under argument swap and cyclic invariance — the
// properties the mesh code's correctness rests on.
func FuzzOrientConsistency(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
	f.Add(0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
	f.Add(1e-300, 1e-300, 2e-300, 2e-300, 3e-300, 3.0000000001e-300)
	// Exponents 1 000 binary orders apart: 200-bit floats round b - c.
	f.Add(1.1111111111111111e-301, 6e-300, -7.0, 27.0, 3e-300, 3.0000000001e-300)
	// Orient(b, c, a)'s products underflow to 0: the filter cannot decide.
	f.Add(1e-300, 1e-300, 8e-300, 1e-300, 55.0, 3.0000000001e-300)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		a, b, c := Point{X: ax, Y: ay}, Point{X: bx, Y: by}, Point{X: cx, Y: cy}
		o := Orient(a, b, c)
		if Orient(b, c, a) != o || Orient(c, a, b) != o {
			t.Fatalf("orientation not cyclic for %v %v %v", a, b, c)
		}
		if Orient(a, c, b) != -o {
			t.Fatalf("orientation not antisymmetric for %v %v %v", a, b, c)
		}
	})
}

// FuzzInCircleSymmetry checks that the in-circle predicate is invariant
// under cyclic permutation of the (CCW) triangle.
func FuzzInCircleSymmetry(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.2, 0.2)
	f.Add(0.0, 0.0, 1.0, 0.0, 0.5, 0.8, 0.5, -0.1)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e30 {
				return
			}
		}
		a, b, c := Point{X: ax, Y: ay}, Point{X: bx, Y: by}, Point{X: cx, Y: cy}
		d := Point{X: dx, Y: dy}
		if Orient(a, b, c) != 1 {
			return // predicate contract requires CCW input
		}
		s := InCircle(a, b, c, d)
		if InCircle(b, c, a, d) != s || InCircle(c, a, b, d) != s {
			t.Fatalf("in-circle not cyclic for %v %v %v %v", a, b, c, d)
		}
	})
}
