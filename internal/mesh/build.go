package mesh

import "galois/internal/geom"

// superK places the super vertices far outside the unit square.
const superK = 1e4

// superVertices are the corners of the super-triangle, counterclockwise.
var superVertices = [3]geom.Point{{X: -superK, Y: -superK}, {X: 3 * superK, Y: -superK}, {X: -superK, Y: 3 * superK}}

// NewSuperTriangle returns a one-triangle mesh whose triangle comfortably
// contains the unit square (and any point set scaled into it). Incremental
// Delaunay insertion into it yields the Delaunay triangulation of the
// points plus the three far-away super vertices; interior triangles (those
// not touching a super vertex) are reported as the result.
func NewSuperTriangle() *Element {
	return NewTriangle(superVertices[0], superVertices[1], superVertices[2])
}

// IsSuperVertex reports whether p is a vertex of the super-triangle.
func IsSuperVertex(p geom.Point) bool {
	return p == superVertices[0] || p == superVertices[1] || p == superVertices[2]
}

// touchesSuper reports whether triangle e has a super vertex for a corner.
func touchesSuper(e *Element) bool {
	return IsSuperVertex(e.Pts[0]) || IsSuperVertex(e.Pts[1]) || IsSuperVertex(e.Pts[2])
}

// NewUnitSquare returns a unit-square domain triangulated with two
// triangles and guarded by four boundary segments — the starting mesh for
// Delaunay refinement inputs. The returned element is one of the triangles.
func NewUnitSquare() *Element {
	p00 := geom.Point{X: 0, Y: 0}
	p10 := geom.Point{X: 1, Y: 0}
	p11 := geom.Point{X: 1, Y: 1}
	p01 := geom.Point{X: 0, Y: 1}
	t1 := NewTriangle(p00, p10, p11)
	t2 := NewTriangle(p00, p11, p01)
	Wire(t1, t2, p00, p11)
	for _, s := range [][2]geom.Point{{p00, p10}, {p10, p11}} {
		seg := NewSegment(s[0], s[1])
		Wire(t1, seg, s[0], s[1])
	}
	for _, s := range [][2]geom.Point{{p11, p01}, {p01, p00}} {
		seg := NewSegment(s[0], s[1])
		Wire(t2, seg, s[0], s[1])
	}
	return t1
}

// InsertPointSeq inserts p into the mesh sequentially (no synchronization):
// locate from the hint element, build the Bowyer–Watson cavity into c, and
// retriangulate. It returns a new hint (one of the created triangles) and
// whether the point was inserted (false for duplicates of existing
// vertices). Used to build inputs and as the dt/dmr sequential baseline
// building block; a caller inserting many points passes one c to each call.
func InsertPointSeq(c *Cavity, hint *Element, p geom.Point) (newHint *Element, inserted bool) {
	t, onVertex := Locate(hint, p, NoAcquire)
	if onVertex {
		return t, false
	}
	created := BuildInsertion(c, t, p, NoAcquire).Retriangulate(nil)
	return created[0], true
}

// BuildDelaunaySeq triangulates pts (sequentially, in the given order,
// which callers typically BRIO/Hilbert order first) into the mesh rooted at
// root, building every insertion's cavity into one Cavity. It returns a live
// element of the final mesh and the number of points actually inserted.
func BuildDelaunaySeq(root *Element, pts []geom.Point) (*Element, int) {
	var c Cavity
	hint := root
	inserted := 0
	for _, p := range pts {
		var ok bool
		hint, ok = InsertPointSeq(&c, hint, p)
		if ok {
			inserted++
		}
	}
	return hint, inserted
}
