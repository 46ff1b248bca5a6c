package mesh

import (
	"fmt"
	"math"
	"testing"

	"galois/internal/geom"
)

// The sizes are galoisbench's engine-mesh sizes (benchmark/engine.go): a
// 6 000-point dt and a 3 000-point dmr mesh. EXPERIMENTS.md H16 records
// these rows for the parent and the change.
const (
	benchDTPoints  = 6000
	benchDMRPoints = 3000
	// dmr's default quality floor (dmr.DefaultQuality).
	benchMinEdge2 = 1e-10
)

// shrink moves unit-square points off the boundary, as dmr.MakeInput does.
func shrink(pts []geom.Point) []geom.Point {
	for i := range pts {
		pts[i].X = 0.02 + 0.96*pts[i].X
		pts[i].Y = 0.02 + 0.96*pts[i].Y
	}
	return pts
}

// benchDMRInput is dmr.MakeInput without importing the app: a Delaunay mesh
// of n shrunken uniform points in the segment-guarded unit square.
func benchDMRInput(n int, seed uint64) *Element {
	root, _ := BuildDelaunaySeq(NewUnitSquare(), geom.BRIO(shrink(geom.UniformPoints(n, seed)), seed+1))
	return root
}

func badTriangles(root *Element) []*Element {
	var bad []*Element
	for _, e := range Triangles(root) {
		if e.IsBad(geom.Cos30, benchMinEdge2) {
			bad = append(bad, e)
		}
	}
	return bad
}

// refineStep is one iteration of dmr.Seq's loop: pop a triangle, refine it
// if it is still alive and bad, building its cavity into c, and push the
// bad triangles that result. It reports whether a cavity was applied.
func refineStep(c *Cavity, work *[]*Element) bool {
	w := *work
	el := w[len(w)-1]
	w = w[:len(w)-1]
	applied := false
	if !el.Dead && el.IsBad(geom.Cos30, benchMinEdge2) {
		for _, t := range BuildRefinement(c, el, NoAcquire).Retriangulate(nil) {
			if !t.IsSegment() && t.IsBad(geom.Cos30, benchMinEdge2) {
				w = append(w, t)
			}
		}
		if !el.Dead && el.IsBad(geom.Cos30, benchMinEdge2) {
			w = append(w, el)
		}
		applied = true
	}
	*work = w
	return applied
}

// refineSeq refines the mesh to completion and returns a live element.
func refineSeq(root *Element) *Element {
	var c Cavity
	work := badTriangles(root)
	for len(work) > 0 {
		refineStep(&c, &work)
	}
	for root.Dead {
		root = root.Repl
	}
	return root
}

// BenchmarkInsertPoint is one sequential Bowyer–Watson insertion (locate,
// build the cavity, retriangulate) in BRIO order. "bare" is the unit of
// dt.Seq and of every input build. "assoc" carries association lists the
// way dt.Galois commits do: every point not yet inserted rides in the list
// of the triangle that contains it, is located from there, and is moved by
// redistribute whenever a cavity kills that triangle.
func BenchmarkInsertPoint(b *testing.B) {
	pts := geom.BRIO(geom.UniformPoints(benchDTPoints, 42), 45)
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		var hint *Element
		var c Cavity
		for i := 0; i < b.N; i++ {
			if i%len(pts) == 0 {
				hint = NewSuperTriangle()
			}
			hint, _ = InsertPointSeq(&c, hint, pts[i%len(pts)])
		}
	})
	b.Run("assoc", func(b *testing.B) {
		b.ReportAllocs()
		pointTri := make([]*Element, len(pts))
		var c Cavity
		for i := 0; i < b.N; i++ {
			k := i % len(pts)
			if k == 0 {
				b.StopTimer()
				root := NewSuperTriangle()
				root.Assoc = make([]int32, len(pts))
				for j := range pts {
					root.Assoc[j], pointTri[j] = int32(j), root
				}
				b.StartTimer()
			}
			tri, onVertex := Locate(pointTri[k], pts[k], NoAcquire)
			if onVertex {
				continue
			}
			for _, e := range BuildInsertion(&c, tri, pts[k], NoAcquire).Retriangulate(pts) {
				for _, idx := range e.Assoc {
					pointTri[idx] = e
				}
			}
		}
	})
}

// BenchmarkRefineCavity is one dmr refinement step (build the refinement
// cavity, retriangulate, test the new triangles) on a 3 000-point mesh,
// rebuilt untimed whenever it runs out of bad triangles.
func BenchmarkRefineCavity(b *testing.B) {
	b.ReportAllocs()
	var work []*Element
	var c Cavity
	for i := 0; i < b.N; {
		if len(work) == 0 {
			b.StopTimer()
			work = badTriangles(benchDMRInput(benchDMRPoints, 46))
			b.StartTimer()
		}
		if refineStep(&c, &work) {
			i++
		}
	}
}

// circleCavity returns the insertion cavity of the centre of n+2 points on
// a circle: the n triangles that triangulate the polygon.
func circleCavity(tb testing.TB, n int) *Cavity {
	pts := make([]geom.Point, n+2)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(len(pts))
		pts[i] = geom.Point{X: 0.5 + 0.25*math.Cos(a), Y: 0.5 + 0.25*math.Sin(a)}
	}
	root, _ := BuildDelaunaySeq(NewSuperTriangle(), pts)
	centre := geom.Point{X: 0.5, Y: 0.5}
	tri, onVertex := Locate(root, centre, NoAcquire)
	if onVertex {
		tb.Fatal("centre is a vertex")
	}
	cav := BuildInsertion(new(Cavity), tri, centre, NoAcquire)
	if len(cav.Members) != n {
		tb.Fatalf("circle of %d points gave a %d-member cavity, want %d", len(pts), len(cav.Members), n)
	}
	return cav
}

// BenchmarkRetriangulate applies one cavity over and over. Retriangulate
// reads nothing it writes (with no association lists to move), so every
// call does the same work: it builds the star again and points the
// surviving neighbours at it.
func BenchmarkRetriangulate(b *testing.B) {
	for _, n := range []int{4, 8, 32} {
		b.Run(fmt.Sprintf("%d-member", n), func(b *testing.B) {
			cav := circleCavity(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cav.Retriangulate(nil)
			}
		})
	}
}

var fingerprintSink uint64

// BenchmarkFingerprint is the canonical mesh hash every dt/dmr result pays
// before it can be compared: dt excludes the super triangles, dmr hashes a
// refined mesh whole.
func BenchmarkFingerprint(b *testing.B) {
	dtRoot, _ := BuildDelaunaySeq(NewSuperTriangle(), geom.BRIO(geom.UniformPoints(benchDTPoints, 42), 45))
	dmrRoot := refineSeq(benchDMRInput(benchDMRPoints, 46))
	for _, c := range []struct {
		name         string
		root         *Element
		excludeSuper bool
	}{{"dt", dtRoot, true}, {"dmr", dmrRoot, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fingerprintSink = Fingerprint(c.root, c.excludeSuper)
			}
		})
	}
}
