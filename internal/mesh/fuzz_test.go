package mesh

import (
	"testing"

	"galois/internal/geom"
)

// FuzzStarWiring builds a point set from the input — each byte pair a point
// of a 256×256 grid strictly inside the unit square, so duplicates,
// collinear runs and co-circular clusters (the wide cavities) are common —
// and inserts it into two copies of a mesh, one through the map-based
// reference and one through Retriangulate, comparing every cavity; then it
// splits boundary segments the same way. Both meshes must stay conforming
// and Delaunay.
func FuzzStarWiring(f *testing.F) {
	f.Add([]byte{128, 128})
	f.Add([]byte{10, 10, 10, 10, 200, 30, 30, 200, 128, 128, 128, 10})
	// Twenty points of a circle and its centre: a cavity wider than the
	// inline storage.
	f.Add([]byte{178, 128, 176, 143, 168, 157, 157, 168, 143, 176, 128, 178, 113, 176, 99, 168, 88, 157, 80, 143,
		78, 128, 80, 113, 88, 99, 99, 88, 113, 80, 128, 78, 143, 80, 157, 88, 168, 99, 176, 113, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*96 {
			data = data[:2*96]
		}
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			pts[i] = geom.Point{X: (2*float64(data[2*i]) + 1) / 512, Y: (2*float64(data[2*i+1]) + 1) / 512}
		}
		insertBoth(t, NewSuperTriangle, pts, true)
		refRoot, gotRoot, _ := insertBoth(t, NewUnitSquare, pts, false)

		refLive, gotLive := Live(refRoot), Live(gotRoot)
		if len(refLive) != len(gotLive) {
			t.Fatalf("meshes differ: %d vs %d live elements", len(refLive), len(gotLive))
		}
		for i, s := range gotLive {
			if !s.IsSegment() || s.Dead {
				continue // split by an earlier iteration's cavity
			}
			if refLive[i].Pts != s.Pts {
				t.Fatalf("meshes differ at element %d: %v vs %v", i, refLive[i], s)
			}
			_, gotNew := applyBoth(t, buildSegmentSplit(new(Cavity), refLive[i], NoAcquire), buildSegmentSplit(new(Cavity), s, NoAcquire), nil)
			gotRoot = gotNew[0]
		}
		checkMesh(t, gotRoot)
	})
}
