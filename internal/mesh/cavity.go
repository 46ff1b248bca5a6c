package mesh

import (
	"fmt"

	"galois/internal/geom"
)

// frontEdge is one edge of the cavity boundary: the new point is joined to
// (u, v), and the resulting triangle is wired to outside (a surviving
// triangle, a boundary segment, or nil on the outer hull).
type frontEdge struct {
	u, v    geom.Point
	outside *Element
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
				c.frontier = append(c.frontier, frontEdge{u: u, v: v, outside: nb})
				continue
			}
			if c.hasMember(nb) {
				continue
			}
			if nb.InCircumcircle(c.Center) {
				c.Members = append(c.Members, nb)
				continue
			}
			c.frontier = append(c.frontier, frontEdge{u: u, v: v, outside: nb})
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

// BuildSegmentSplit builds into c the cavity that replaces boundary segment
// s with two half-segments and inserts its midpoint, and returns c. The
// caller must have acquired s (it arrives through cavity expansion or a
// refinement walk, which do).
func BuildSegmentSplit(c *Cavity, s *Element, acq Acquirer) *Cavity {
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

// spoke is a star edge {x, Center} seen on one new triangle, t, and waiting
// for the other new triangle that shares it.
type spoke struct {
	x geom.Point
	t *Element
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

// takeSpoke removes the spoke at x from open and returns the triangle that
// was waiting on it, or nil if there is none.
func takeSpoke(open []spoke, x geom.Point) ([]spoke, *Element) {
	for i, sp := range open {
		if sp.x == x {
			last := len(open) - 1
			open[i] = open[last]
			return open[:last], sp.t
		}
	}
	return open, nil
}

// joinSpoke wires t to the triangle waiting at spoke x, or leaves t waiting
// there.
func joinSpoke(open []spoke, center geom.Point, t *Element, x geom.Point) []spoke {
	open, other := takeSpoke(open, x)
	if other == nil {
		return append(open, spoke{x, t})
	}
	Wire(t, other, x, center)
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
		t := NewTriangle(fe.u, fe.v, c.Center)
		created = append(created, t)
		// Outer side.
		if fe.outside != nil {
			Wire(t, fe.outside, fe.u, fe.v)
		}
		// Inner (star) sides.
		open = joinSpoke(open, c.Center, t, fe.v)
		open = joinSpoke(open, c.Center, t, fe.u)
	}
	if c.SplitSeg != nil {
		if !sawSplitEdge {
			panic("mesh: segment split cavity lost its segment edge")
		}
		s1 := NewSegment(splitU, c.Center)
		s2 := NewSegment(c.Center, splitV)
		// Wire each half-segment to the unique star triangle sharing
		// its edge: the one still waiting at the half's frontier end.
		for _, h := range [2]spoke{{splitU, s1}, {splitV, s2}} {
			var t *Element
			if open, t = takeSpoke(open, h.x); t == nil {
				panic("mesh: no star triangle for split segment half")
			}
			Wire(t, h.t, h.x, c.Center)
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

// redistribute moves the members' associated point indices into the created
// triangles: each point, unless it is the inserted center, goes to the first
// created triangle that contains it. The new lists are windows of one array,
// filled in member and Assoc order, each with its capacity cut to its
// length, so an append to one list never writes into the next.
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

	// Place every point once and remember where it goes.
	placed, j := 0, 0
	for _, m := range c.Members {
		for _, idx := range m.Assoc {
			dest[j] = -1
			if p := pts[idx]; p != c.Center { // else now inserted
				for k, t := range created {
					if !t.IsSegment() && t.Contains(p) {
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
