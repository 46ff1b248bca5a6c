// Package mesh implements the triangle-mesh substrate for the Delaunay
// triangulation (dt) and Delaunay mesh refinement (dmr) benchmarks:
// elements (triangles and boundary segments) with edge adjacency, locate
// walks with forwarding pointers, Bowyer–Watson insertion cavities,
// refinement cavities with segment encroachment, retriangulation, and
// structural/Delaunay validation.
//
// Every element embeds a mark word (marks.Lockable); elements are the
// abstract locations of the dt/dmr Galois programs. All mutation happens in
// Retriangulate, which tasks call from their commit phase while holding
// (under either scheduler) every element it touches: the cavity members and
// the frontier elements it rewires.
package mesh

import (
	"fmt"

	"galois/internal/geom"
	"galois/internal/marks"
)

// Element is a mesh element: a triangle (three points) or a boundary
// segment (two points). Segments sit on the domain boundary; a triangle's
// neighbor across a boundary edge is the segment guarding that edge.
type Element struct {
	marks.Lockable
	// Pts are the element's corners; triangles are counterclockwise.
	// Segments use Pts[0], Pts[1].
	Pts [3]geom.Point
	// adj[i] is the neighbor across edge i = (Pts[i], Pts[(i+1)%dim]):
	// a triangle, a segment (boundary), or nil (outer hull of an
	// unbounded triangulation). Segments use adj[0] = their inner
	// triangle.
	adj [3]*Element
	dim int8
	// Dead marks elements removed from the mesh.
	Dead bool
	// Repl forwards from a dead element to one of the elements created
	// by the cavity that killed it, so walks starting at stale elements
	// reach the live mesh. Set exactly once, at death.
	Repl *Element
	// Assoc holds indices of not-yet-inserted points located inside this
	// triangle (used by dt's point-location-by-association scheme).
	Assoc []int32
}

// NewTriangle returns a live triangle over (a, b, c), normalized to
// counterclockwise orientation. It panics on degenerate (collinear) input.
func NewTriangle(a, b, c geom.Point) *Element {
	switch geom.Orient(a, b, c) {
	case 1:
	case -1:
		b, c = c, b
	default:
		panic(fmt.Sprintf("mesh: degenerate triangle (%v %v %v)", a, b, c))
	}
	return &Element{Pts: [3]geom.Point{a, b, c}, dim: 3}
}

// NewSegment returns a boundary segment over (a, b).
func NewSegment(a, b geom.Point) *Element {
	return &Element{Pts: [3]geom.Point{a, b, {}}, dim: 2}
}

// IsSegment reports whether e is a boundary segment.
func (e *Element) IsSegment() bool { return e.dim == 2 }

// Edge returns the endpoints of edge i.
func (e *Element) Edge(i int) (geom.Point, geom.Point) {
	return e.Pts[i], e.Pts[(i+1)%int(e.dim)]
}

// NEdges returns the number of edges (3 for triangles, 1 for segments).
func (e *Element) NEdges() int {
	if e.dim == 2 {
		return 1
	}
	return 3
}

// Adj returns the neighbor across edge i.
func (e *Element) Adj(i int) *Element { return e.adj[i] }

// EdgeIndex returns the index of the (undirected) edge {u, v}, or -1.
func (e *Element) EdgeIndex(u, v geom.Point) int {
	for i := 0; i < e.NEdges(); i++ {
		a, b := e.Edge(i)
		if (a == u && b == v) || (a == v && b == u) {
			return i
		}
	}
	return -1
}

// HasVertex reports whether p is a corner of e.
func (e *Element) HasVertex(p geom.Point) bool {
	for i := 0; i < int(e.dim); i++ {
		if e.Pts[i] == p {
			return true
		}
	}
	return false
}

// InCircumcircle reports whether p lies strictly inside the triangle's
// circumcircle.
func (e *Element) InCircumcircle(p geom.Point) bool {
	return geom.InCircle(e.Pts[0], e.Pts[1], e.Pts[2], p) > 0
}

// Circumcenter returns the triangle's circumcenter.
func (e *Element) Circumcenter() geom.Point {
	return geom.Circumcenter(e.Pts[0], e.Pts[1], e.Pts[2])
}

// IsBad reports whether the triangle's smallest angle is below the quality
// bound (cosBound = cosine of the bound angle). Triangles whose shortest
// edge is already at or below the squared length floor minEdge2 are never
// bad: the floor is a safety valve against unbounded refinement near the
// quality limit of Ruppert-style algorithms.
func (e *Element) IsBad(cosBound, minEdge2 float64) bool {
	if e.dim != 3 {
		return false
	}
	if minEdge2 > 0 {
		short := geom.Dist2(e.Pts[0], e.Pts[1])
		if d := geom.Dist2(e.Pts[1], e.Pts[2]); d < short {
			short = d
		}
		if d := geom.Dist2(e.Pts[2], e.Pts[0]); d < short {
			short = d
		}
		if short <= minEdge2 {
			return false
		}
	}
	return geom.MinAngleBelow(e.Pts[0], e.Pts[1], e.Pts[2], cosBound)
}

// String renders the element compactly.
func (e *Element) String() string {
	kind := "tri"
	if e.IsSegment() {
		kind = "seg"
	}
	state := ""
	if e.Dead {
		state = " dead"
	}
	if e.IsSegment() {
		return fmt.Sprintf("%s(%v %v)%s", kind, e.Pts[0], e.Pts[1], state)
	}
	return fmt.Sprintf("%s(%v %v %v)%s", kind, e.Pts[0], e.Pts[1], e.Pts[2], state)
}

// Wire links t and nb across the undirected edge {u, v}, updating both
// sides. Either may be a segment (whose triangle side is adj[0]).
func Wire(t, nb *Element, u, v geom.Point) {
	if t != nil {
		i := t.EdgeIndex(u, v)
		if i < 0 {
			panic("mesh: Wire: edge not found on t")
		}
		t.adj[i] = nb
	}
	if nb != nil {
		i := nb.EdgeIndex(u, v)
		if i < 0 {
			panic("mesh: Wire: edge not found on nb")
		}
		nb.adj[i] = t
	}
}
