package mesh

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"galois/internal/canon"
	"galois/internal/geom"
)

// Live enumerates all live elements reachable from root (following
// forwarding pointers first if root is dead): the full mesh, since
// triangulations are edge-connected. Triangles and segments are both
// included, in breadth-first order: the result is its own queue.
func Live(root *Element) []*Element {
	for root.Dead {
		root = root.Repl
	}
	seen := map[*Element]bool{root: true}
	out := []*Element{root}
	for head := 0; head < len(out); head++ {
		e := out[head]
		for i := 0; i < e.NEdges(); i++ {
			nb := e.adj[i]
			if nb == nil || seen[nb] {
				continue
			}
			seen[nb] = true
			out = append(out, nb)
		}
	}
	return out
}

// Triangles filters Live down to triangles.
func Triangles(root *Element) []*Element {
	live := Live(root)
	out := live[:0]
	for _, e := range live {
		if !e.IsSegment() {
			out = append(out, e)
		}
	}
	return out
}

// CheckConforming validates the structural invariants of the mesh rooted at
// root: no dead elements reachable, triangles counterclockwise, adjacency
// symmetric, every interior edge shared by exactly two triangles, every
// segment wired to exactly one triangle.
func CheckConforming(root *Element) error {
	for _, e := range Live(root) {
		if e.Dead {
			return fmt.Errorf("mesh: dead element %v reachable", e)
		}
		if !e.IsSegment() {
			if geom.Orient(e.Pts[0], e.Pts[1], e.Pts[2]) <= 0 {
				return fmt.Errorf("mesh: triangle %v not counterclockwise", e)
			}
		}
		for i := 0; i < e.NEdges(); i++ {
			u, v := e.Edge(i)
			nb := e.adj[i]
			if nb == nil {
				if e.IsSegment() {
					return fmt.Errorf("mesh: segment %v missing inner triangle", e)
				}
				continue // outer hull edge (super-triangle meshes)
			}
			if nb.Dead {
				return fmt.Errorf("mesh: %v adjacent to dead %v", e, nb)
			}
			j := nb.EdgeIndex(u, v)
			if j < 0 {
				return fmt.Errorf("mesh: %v and neighbor %v share no edge (%v,%v)", e, nb, u, v)
			}
			if nb.adj[j] != e {
				return fmt.Errorf("mesh: asymmetric adjacency between %v and %v", e, nb)
			}
		}
	}
	return nil
}

// CheckDelaunay verifies the empty-circumcircle property via the local
// Delaunay criterion: for every interior edge, the vertex opposite the edge
// in each neighbor lies on or outside the circumcircle of the other
// triangle. Local Delaunayhood of every edge implies the global property.
func CheckDelaunay(root *Element) error {
	for _, e := range Triangles(root) {
		for i := 0; i < 3; i++ {
			nb := e.adj[i]
			if nb == nil || nb.IsSegment() {
				continue
			}
			u, v := e.Edge(i)
			opp, ok := oppositeVertex(nb, u, v)
			if !ok {
				return fmt.Errorf("mesh: neighbor %v lost shared edge of %v", nb, e)
			}
			if geom.InCircle(e.Pts[0], e.Pts[1], e.Pts[2], opp) > 0 {
				return fmt.Errorf("mesh: edge (%v,%v) of %v is not locally Delaunay (opp %v)", u, v, e, opp)
			}
		}
	}
	return nil
}

func oppositeVertex(t *Element, u, v geom.Point) (geom.Point, bool) {
	for i := 0; i < 3; i++ {
		if t.Pts[i] != u && t.Pts[i] != v {
			return t.Pts[i], true
		}
	}
	return geom.Point{}, false
}

// CheckNoBad verifies that no live triangle violates the quality bound
// (with the same floor semantics as Element.IsBad).
func CheckNoBad(root *Element, cosBound, minEdge2 float64) error {
	for _, e := range Triangles(root) {
		if e.IsBad(cosBound, minEdge2) {
			return fmt.Errorf("mesh: bad triangle survived refinement: %v", e)
		}
	}
	return nil
}

// Fingerprint returns a canonical hash of the mesh rooted at root: the
// sorted multiset of triangle vertex triples (optionally excluding
// triangles touching super vertices). Identical meshes — regardless of
// construction order or element identity — hash identically.
//
// A triangle's key is its corners in (X, Y) order, each coordinate in
// hexadecimal floating point ("%x,%x;%x,%x;%x,%x"); keys are hashed in
// byte order. The keys are written into one arena and sorted by index.
func Fingerprint(root *Element, excludeSuper bool) uint64 {
	tris := Triangles(root)
	arena := make([]byte, 0, len(tris)*fingerprintKeyLen)
	keys := make([][2]int, 0, len(tris)) // [start, end) of each key in arena
	for _, e := range tris {
		if excludeSuper && touchesSuper(e) {
			continue
		}
		start := len(arena)
		arena = appendCanonicalTriangle(arena, e)
		keys = append(keys, [2]int{start, len(arena)})
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		return bytes.Compare(arena[a[0]:a[1]], arena[b[0]:b[1]])
	})
	h := canon.NewFNV()
	for _, k := range keys {
		h = h.Bytes(arena[k[0]:k[1]]).Byte(0xff)
	}
	return uint64(h)
}

// fingerprintKeyLen is the usual length of a key: six coordinates of a
// sign-less 13-digit mantissa and two-digit exponent, five separators.
const fingerprintKeyLen = 6*21 + 5

func appendCanonicalTriangle(buf []byte, e *Element) []byte {
	less := func(p, q geom.Point) bool {
		if p.X != q.X {
			return p.X < q.X
		}
		return p.Y < q.Y
	}
	a, b, c := e.Pts[0], e.Pts[1], e.Pts[2]
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b, c = c, b
		if less(b, a) {
			a, b = b, a
		}
	}
	for i, p := range [3]geom.Point{a, b, c} {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = strconv.AppendFloat(buf, p.X, 'x', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.Y, 'x', -1, 64)
	}
	return buf
}

// CountTriangles returns the number of live triangles (excluding super
// triangles if requested).
func CountTriangles(root *Element, excludeSuper bool) int {
	n := 0
	for _, e := range Triangles(root) {
		if excludeSuper && touchesSuper(e) {
			continue
		}
		n++
	}
	return n
}
