package mesh

import (
	"fmt"

	"galois/internal/geom"
)

// frontEdge is one edge of the cavity boundary: the new point is joined to
// (u, v), and the resulting triangle is wired to outside (a surviving
// triangle, a boundary segment, or nil on the outer hull) through outside's
// edge slot, the one that faced the member.
type frontEdge struct {
	u, v    geom.Point
	outside *Element
	slot    int8
}

// Cavity describes one mesh update: the elements to remove (Members), the
// boundary to re-join (frontier) and the point to insert (Center). For a
// boundary-segment split, SplitSeg is the segment being replaced and Center
// its midpoint.
//
// Building a cavity only reads the mesh; Retriangulate performs all writes.
// This split is what lets the same code run speculatively (reads acquire
// locks as they happen) and deterministically (reads mark the interference
// graph in the inspect phase, writes run in the commit phase).
//
// Members, frontier and the elements Retriangulate creates start out backed
// by memberBuf, frontBuf and createdBuf, so a cavity of ordinary size needs
// no storage beyond the Cavity itself; larger ones regrow through append
// like any slice. The builders build into a Cavity the caller supplies — a
// task's plan, or one a sequential loop reuses for every insertion — and
// empty it first. A Cavity must not be copied.
type Cavity struct {
	Center   geom.Point
	SplitSeg *Element
	Members  []*Element
	frontier []frontEdge

	memberBuf [inlineMembers]*Element
	frontBuf  [inlineFrontier]frontEdge
	// One triangle per frontier edge, or one fewer and two segments.
	createdBuf [inlineFrontier + 2]*Element
}

// Inline capacities, from the cavity sizes galoisbench's own inputs produce
// (EXPERIMENTS.md H16: 6 000-point dt and eight 3 000-point dmr meshes):
// 99.2% of dt and 99.8% of dmr cavities have at most 8 members, and a
// cavity of m triangles has m+2 frontier edges.
const (
	inlineMembers  = 8
	inlineFrontier = inlineMembers + 2
)

// init empties c for a new cavity around center, over its inline storage.
// Whatever c held before, zero or a finished cavity, is discarded.
func (c *Cavity) init(center geom.Point) {
	c.Center, c.SplitSeg = center, nil
	c.Members, c.frontier = c.memberBuf[:0], c.frontBuf[:0]
}

func (c *Cavity) hasMember(e *Element) bool {
	for _, m := range c.Members {
		if m == e {
			return true
		}
	}
	return false
}

// expand grows the cavity from seed to the full conflict region of
// c.Center: the connected set of triangles whose circumcircle strictly
// contains the center (which is exactly the Bowyer–Watson cavity, and is
// connected in a Delaunay mesh). Frontier elements are acquired because
// Retriangulate rewires them.
//
// If stopOnEncroach is true and the region's boundary reaches a domain
// segment whose diametral circle contains the center, expansion stops and
// the offending segment is returned — Ruppert's rule that an encroaching
// circumcenter must not be inserted.
func (c *Cavity) expand(seed *Element, acq Acquirer, stopOnEncroach bool) (encroached *Element) {
	c.Members = append(c.Members, seed)
	for scan := len(c.Members) - 1; scan < len(c.Members); scan++ {
		e := c.Members[scan]
		for i := 0; i < 3; i++ {
			u, v := e.Edge(i)
			nb := e.adj[i]
			if nb == nil {
				c.frontier = append(c.frontier, frontEdge{u: u, v: v})
				continue
			}
			acq(nb)
			if nb.IsSegment() {
				if stopOnEncroach && nb != c.SplitSeg &&
					geom.InDiametralCircle(nb.Pts[0], nb.Pts[1], c.Center) {
					return nb
				}
				c.frontier = append(c.frontier, frontEdge{u: u, v: v, outside: nb, slot: nb.slotOf(e)})
				continue
			}
			if c.hasMember(nb) {
				continue
			}
			if nb.InCircumcircle(c.Center) {
				c.Members = append(c.Members, nb)
				continue
			}
			c.frontier = append(c.frontier, frontEdge{u: u, v: v, outside: nb, slot: nb.slotOf(e)})
		}
	}
	return nil
}

// BuildInsertion builds into c the Bowyer–Watson insertion cavity for point
// p, whose containing triangle is t (from Locate), and returns c. Used by
// Delaunay triangulation, where points lie strictly inside the
// (super-)triangulated domain.
func BuildInsertion(c *Cavity, t *Element, p geom.Point, acq Acquirer) *Cavity {
	c.init(p)
	c.expand(t, acq, false)
	return c
}

// buildSegmentSplit builds into c the cavity that replaces boundary segment
// s with two half-segments and inserts its midpoint, and returns c. The
// caller must have acquired s (it arrives through cavity expansion or a
// refinement walk, which do).
func buildSegmentSplit(c *Cavity, s *Element, acq Acquirer) *Cavity {
	c.init(geom.Point{})
	c.segmentSplit(s, acq)
	return c
}

// segmentSplit empties c and builds the split of s into it.
func (c *Cavity) segmentSplit(s *Element, acq Acquirer) {
	c.Center, c.SplitSeg = geom.Midpoint(s.Pts[0], s.Pts[1]), s
	c.Members, c.frontier = append(c.Members[:0], s), c.frontier[:0]
	inner := s.adj[0]
	acq(inner)
	c.expand(inner, acq, false)
}

// BuildRefinement builds into c the cavity for fixing the bad triangle bad,
// and returns c: insert its circumcenter, unless the circumcenter lies
// outside the domain or encroaches a boundary segment, in which case the
// offending segment is split instead (Ruppert/Chew, as in the Lonestar dmr
// code). The caller must have acquired bad and verified it is alive. A split
// found by expansion replaces what expansion had built in c.
func BuildRefinement(c *Cavity, bad *Element, acq Acquirer) *Cavity {
	center := bad.Circumcenter()
	tri, blocked := walkToward(bad, center, acq)
	c.init(center)
	if blocked != nil {
		// The center lies beyond this boundary segment; split it.
		c.segmentSplit(blocked, acq)
	} else if encroached := c.expand(tri, acq, true); encroached != nil {
		c.segmentSplit(encroached, acq)
	}
	return c
}

// The star's triangles are built as (u, v, Center) for each frontier edge
// (u, v), so their edge slots are known without a search: the outer edge
// (u, v) is slot 0, the spoke {v, Center} slot 1 and {Center, u} slot 2.
const (
	slotOuter = 0
	slotV     = 1
	slotU     = 2
)

// slotOf returns the slot of e's edge that faces nb, its neighbour. It
// panics if e does not point back at nb: the adjacency is asymmetric.
func (e *Element) slotOf(nb *Element) int8 {
	for j := 0; j < e.NEdges(); j++ {
		if e.adj[j] == nb {
			return int8(j)
		}
	}
	panic(fmt.Sprintf("mesh: asymmetric adjacency between %v and %v", nb, e))
}

// spoke is a star edge {x, Center} seen on one new triangle, t, at t's edge
// slot, and waiting for the other new triangle that shares it.
type spoke struct {
	x    geom.Point
	t    *Element
	slot int8
}

// The new triangles are wired to each other through their spokes. Every
// edge between two of them is {x, Center} for a frontier vertex x, so x
// alone names the edge, and the spokes still waiting for their second
// triangle are few: the open list is scanned linearly (as hasMember scans
// Members) and starts out in Retriangulate's frame; a star with more than
// starInline spokes open at once moves to the heap through append.
//
// A frontier of f edges has f spokes, so starInline holds a frontier of up
// to starInline edges whatever their order: the widest dt cavity and all but
// a few in 100 000 dmr cavities of H16's histogram.
const starInline = 16

// takeSpoke removes the spoke at x from open and returns it, or a spoke
// with a nil triangle if there is none.
func takeSpoke(open []spoke, x geom.Point) ([]spoke, spoke) {
	for i, sp := range open {
		if sp.x == x {
			last := len(open) - 1
			open[i] = open[last]
			return open[:last], sp
		}
	}
	return open, spoke{}
}

// link makes a's and b's elements neighbours across their shared spoke.
func link(a, b spoke) {
	a.t.adj[a.slot] = b.t
	b.t.adj[b.slot] = a.t
}

// joinSpoke wires sp's triangle to the triangle waiting at the same spoke,
// or leaves it waiting there.
func joinSpoke(open []spoke, sp spoke) []spoke {
	open, other := takeSpoke(open, sp.x)
	if other.t == nil {
		return append(open, sp)
	}
	link(sp, other)
	return open
}

// Retriangulate applies the cavity to the mesh: kills the members, creates
// the star of Center over the frontier (plus split segments), rewires
// adjacency on both sides, and — when pts is non-nil — redistributes the
// members' associated point indices into the new triangles (skipping any
// index whose point equals the inserted center). It returns the created
// elements, triangles first, in a slice that belongs to c: it is valid while
// c is, and a second Retriangulate of c overwrites it.
//
// The caller must hold every member and frontier element; under the
// deterministic scheduler that is guaranteed by having built the cavity
// through the inspect phase's Acquirer.
func (c *Cavity) Retriangulate(pts []geom.Point) []*Element {
	var buf [starInline]spoke
	open := buf[:0]
	created := c.createdBuf[:0]

	var splitU, splitV geom.Point
	sawSplitEdge := false
	for _, fe := range c.frontier {
		if geom.Orient(fe.u, fe.v, c.Center) <= 0 {
			// Degenerate star edge: the center lies on this
			// frontier edge. Legal only for the segment being
			// split (its midpoint is on it by construction).
			if c.SplitSeg == nil || fe.outside != c.SplitSeg {
				panic(fmt.Sprintf("mesh: center %v collinear with frontier edge (%v,%v)",
					c.Center, fe.u, fe.v))
			}
			splitU, splitV = fe.u, fe.v
			sawSplitEdge = true
			continue
		}
		// Counterclockwise as it stands: the check above is
		// NewTriangle's.
		t := &Element{Pts: [3]geom.Point{fe.u, fe.v, c.Center}, dim: 3}
		created = append(created, t)
		// Outer side.
		if fe.outside != nil {
			t.adj[slotOuter] = fe.outside
			fe.outside.adj[fe.slot] = t
		}
		// Inner (star) sides.
		open = joinSpoke(open, spoke{fe.v, t, slotV})
		open = joinSpoke(open, spoke{fe.u, t, slotU})
	}
	if c.SplitSeg != nil {
		if !sawSplitEdge {
			panic("mesh: segment split cavity lost its segment edge")
		}
		s1 := NewSegment(splitU, c.Center)
		s2 := NewSegment(c.Center, splitV)
		// Wire each half-segment (its edge is slot 0) to the unique
		// star triangle sharing it: the one still waiting at the
		// half's frontier end.
		for _, h := range [2]spoke{{x: splitU, t: s1}, {x: splitV, t: s2}} {
			var sp spoke
			if open, sp = takeSpoke(open, h.x); sp.t == nil {
				panic("mesh: no star triangle for split segment half")
			}
			link(sp, h)
		}
		created = append(created, s1, s2)
	}
	if len(created) == 0 {
		panic("mesh: retriangulation created no elements")
	}

	// Kill members and set forwarding pointers.
	repl := created[0]
	for _, m := range c.Members {
		m.Dead = true
		m.Repl = repl
	}

	if pts != nil {
		c.redistribute(created, pts)
	}
	return created
}

// inlineScratch is how many int32s redistribute keeps in its frame: a
// per-triangle count for each created triangle and a destination for each
// associated point. Only dt's earliest insertions, whose cavities still
// hold hundreds or thousands of points, need more, in one heap slice.
const inlineScratch = 256

// ray is a spoke {x, Center} as redistribute places points by it: x's
// offset from the center, taken once per cavity, and which side of the
// spoke the point being placed lies on, taken at most once per point.
type ray struct {
	x, offset geom.Point
	// side is geom.OrientFrom(x, p, Center), +1 if p lies
	// counterclockwise of the spoke, for the point p numbered point:
	// 1 + its position in the members' lists.
	side  int8
	point int32
}

// rayAt returns the index in rays of the spoke at x, appending it if new.
func rayAt(rays []ray, x, center geom.Point) ([]ray, int) {
	for i := range rays {
		if rays[i].x == x {
			return rays, i
		}
	}
	return append(rays, ray{x: x, offset: geom.Sub(x, center)}), len(rays)
}

// redistribute moves the members' associated point indices into the created
// triangles: each point, unless it is the inserted center, goes to the first
// created triangle that contains it. The new lists are windows of one array,
// filled in member and Assoc order, each with its capacity cut to its
// length, so an append to one list never writes into the next.
//
// A point is placed by wedge, not by testing each triangle's three edges.
// Triangle k = (u, v, Center) contains a point p of the cavity exactly when
// p lies in its wedge: Orient(Center, u, p) >= 0 and Orient(Center, v, p)
// <= 0. Retriangulate's frontier check proved that every frontier edge sees
// Center strictly, so the cavity is star-shaped from Center and the star's
// triangles tile it; inside the cavity the outer edge (u, v) therefore
// never decides, and p, being associated with a member, is inside. Orient is
// exact, so the two tests agree with the three-edge test on every point,
// ties included: a point on a spoke or at a frontier vertex lies in two
// wedges, and the first in created order takes it. Each spoke is shared by
// two triangles, and its side is computed at most once per point.
func (c *Cavity) redistribute(created []*Element, pts []geom.Point) {
	points := 0
	for _, m := range c.Members {
		points += len(m.Assoc)
	}
	var buf [inlineScratch]int32
	scratch := buf[:]
	if len(created)+points > len(buf) {
		scratch = make([]int32, len(created)+points)
	}
	count, dest := scratch[:len(created)], scratch[len(created):len(created)+points]

	// The wedge of each created triangle, as the indices of its two
	// spokes; segments, which come last, have none.
	var rayBuf [inlineFrontier + 1]ray
	var wedgeBuf [inlineFrontier + 2][2]int
	rays, wedges := rayBuf[:0], wedgeBuf[:0]
	for _, t := range created {
		if t.IsSegment() {
			break
		}
		var u, v int
		rays, u = rayAt(rays, t.Pts[0], c.Center)
		rays, v = rayAt(rays, t.Pts[1], c.Center)
		wedges = append(wedges, [2]int{u, v})
	}

	// Place every point once and remember where it goes.
	placed, j := 0, 0
	for _, m := range c.Members {
		for _, idx := range m.Assoc {
			dest[j] = -1
			if p := pts[idx]; p != c.Center { // else now inserted
				pc, point := geom.Sub(p, c.Center), int32(j+1)
				for k, w := range wedges {
					r := &rays[w[0]]
					if r.point != point {
						r.side, r.point = int8(geom.OrientFrom(r.x, p, c.Center, r.offset, pc)), point
					}
					if r.side < 0 {
						continue
					}
					if r = &rays[w[1]]; r.point != point {
						r.side, r.point = int8(geom.OrientFrom(r.x, p, c.Center, r.offset, pc)), point
					}
					if r.side <= 0 {
						dest[j] = int32(k)
						break
					}
				}
				if dest[j] < 0 {
					panic("mesh: associated point fell outside its cavity")
				}
				count[dest[j]]++
				placed++
			}
			j++
		}
	}

	// Carve one array into the lists, then fill them in the same order.
	arr := make([]int32, placed)
	off := int32(0)
	for k, t := range created {
		if n := count[k]; n > 0 {
			t.Assoc = arr[off : off : off+n]
			off += n
		}
	}
	j = 0
	for _, m := range c.Members {
		for _, idx := range m.Assoc {
			if k := dest[j]; k >= 0 {
				created[k].Assoc = append(created[k].Assoc, idx)
			}
			j++
		}
		m.Assoc = nil
	}
}
