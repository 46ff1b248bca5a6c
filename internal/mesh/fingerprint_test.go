package mesh

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"galois/internal/geom"
)

// fingerprintRef is Fingerprint as first written — a Sprintf'd string per
// triangle, string-sorted — kept verbatim as the definition of the value:
// galoisbench's goldens, the harness's schedule golden and every cached
// receipt pin it, so the bytes hashed may never move.
func fingerprintRef(root *Element, excludeSuper bool) uint64 {
	var keys []string
	for _, e := range Triangles(root) {
		if excludeSuper && (IsSuperVertex(e.Pts[0]) || IsSuperVertex(e.Pts[1]) || IsSuperVertex(e.Pts[2])) {
			continue
		}
		keys = append(keys, canonicalTriangleRef(e))
	}
	sort.Strings(keys)
	var h uint64 = 14695981039346656037
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

func canonicalTriangleRef(e *Element) string {
	pts := []geom.Point{e.Pts[0], e.Pts[1], e.Pts[2]}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	return fmt.Sprintf("%x,%x;%x,%x;%x,%x",
		pts[0].X, pts[0].Y, pts[1].X, pts[1].Y, pts[2].X, pts[2].Y)
}

func TestFingerprintMatchesReference(t *testing.T) {
	check := func(name string, root *Element) {
		t.Helper()
		for _, excludeSuper := range []bool{true, false} {
			if got, want := Fingerprint(root, excludeSuper), fingerprintRef(root, excludeSuper); got != want {
				t.Errorf("%s, excludeSuper=%v: fingerprint %#x, reference %#x", name, excludeSuper, got, want)
			}
		}
	}
	check("unit square", NewUnitSquare())
	check("super triangle", NewSuperTriangle())

	dt, _ := BuildDelaunaySeq(NewSuperTriangle(), geom.UniformPoints(800, 101))
	check("dt", dt)

	// Negative and zero coordinates, and ties on X that Y must break.
	var signed []geom.Point
	for _, p := range geom.UniformPoints(300, 102) {
		signed = append(signed, geom.Point{X: 2*p.X - 1, Y: 2*p.Y - 1})
	}
	signed = append(signed, geom.Point{}, geom.Point{X: 0, Y: -0.5}, geom.Point{X: 0, Y: 0.5}, geom.Point{X: -0.5, Y: 0}, geom.Point{X: 0.5, Y: 0})
	dtSigned, _ := BuildDelaunaySeq(NewSuperTriangle(), signed)
	check("dt with negative and zero coordinates", dtSigned)

	check("dmr input", benchDMRInput(500, 103))
	check("dmr refined", refineSeq(benchDMRInput(500, 103)))
}

// TestCanonicalTriangleMatchesReference compares the key bytes themselves,
// corner order included, on values no mesh would hold.
func TestCanonicalTriangleMatchesReference(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 1e4, -3e4, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	for i, x0 := range vals {
		for j, y0 := range vals {
			for k, x1 := range vals {
				e := &Element{dim: 3, Pts: [3]geom.Point{{X: x0, Y: y0}, {X: x1, Y: vals[(i+j)%len(vals)]}, {X: vals[(j+k)%len(vals)], Y: x0}}}
				if got, want := string(appendCanonicalTriangle(nil, e)), canonicalTriangleRef(e); got != want {
					t.Fatalf("key of %v: %q, reference %q", e.Pts, got, want)
				}
			}
		}
	}
}

func TestSuperVerticesAreTheSuperTriangle(t *testing.T) {
	want := [3]geom.Point{{X: -1e4, Y: -1e4}, {X: 3e4, Y: -1e4}, {X: -1e4, Y: 3e4}}
	if superVertices != want {
		t.Fatalf("super vertices moved: %v", superVertices)
	}
	if got := NewSuperTriangle().Pts; got != superVertices {
		t.Fatalf("NewSuperTriangle().Pts = %v, superVertices = %v", got, superVertices)
	}
	for _, p := range superVertices {
		if !IsSuperVertex(p) {
			t.Fatalf("%v not recognised as a super vertex", p)
		}
	}
	if IsSuperVertex(geom.Point{X: -1e4, Y: 3e4 + 1}) || IsSuperVertex(geom.Point{}) {
		t.Fatal("a non-super vertex recognised as one")
	}
}
