package mesh

import (
	"fmt"
	"slices"
	"testing"

	"galois/internal/geom"
	"galois/internal/rng"
)

// Contains reports whether the triangle contains p (boundary inclusive):
// the rule dt's association lists follow, each point in the first created
// triangle that contains it. Retriangulate places points by wedge instead;
// retriangulateRef keeps this rule as the reference.
func (e *Element) Contains(p geom.Point) bool {
	for i := 0; i < 3; i++ {
		u, v := e.Edge(i)
		if geom.Orient(u, v, p) < 0 {
			return false
		}
	}
	return true
}

// retriangulateRef is Retriangulate as it was before the star was paired by
// endpoint: shared star edges are matched through a map keyed by the
// undirected point pair. Kept as the reference the differential tests and
// the fuzz target compare the kernel against.
func retriangulateRef(c *Cavity, pts []geom.Point) (created []*Element) {
	type pair struct{ a, b geom.Point }
	norm := func(a, b geom.Point) pair {
		if a.X > b.X || (a.X == b.X && a.Y > b.Y) {
			a, b = b, a
		}
		return pair{a, b}
	}
	half := make(map[pair]*Element, 2*len(c.frontier))
	wireStar := func(t *Element, a, b geom.Point) {
		k := norm(a, b)
		if other, ok := half[k]; ok {
			Wire(t, other, a, b)
			delete(half, k)
		} else {
			half[k] = t
		}
	}

	var splitU, splitV geom.Point
	sawSplitEdge := false
	for _, fe := range c.frontier {
		u, v, outside := fe.u, fe.v, fe.outside
		if geom.Orient(u, v, c.Center) <= 0 {
			if c.SplitSeg == nil || outside != c.SplitSeg {
				panic(fmt.Sprintf("mesh: center %v collinear with frontier edge (%v,%v)", c.Center, u, v))
			}
			splitU, splitV = u, v
			sawSplitEdge = true
			continue
		}
		t := NewTriangle(u, v, c.Center)
		created = append(created, t)
		if outside != nil {
			Wire(t, outside, u, v)
		}
		wireStar(t, v, c.Center)
		wireStar(t, c.Center, u)
	}
	if c.SplitSeg != nil {
		if !sawSplitEdge {
			panic("mesh: segment split cavity lost its segment edge")
		}
		s1 := NewSegment(splitU, c.Center)
		s2 := NewSegment(c.Center, splitV)
		for _, s := range []*Element{s1, s2} {
			k := norm(s.Pts[0], s.Pts[1])
			t, ok := half[k]
			if !ok {
				panic("mesh: no star triangle for split segment half")
			}
			Wire(t, s, s.Pts[0], s.Pts[1])
			delete(half, k)
		}
		created = append(created, s1, s2)
	}
	if len(created) == 0 {
		panic("mesh: retriangulation created no elements")
	}
	repl := created[0]
	for _, m := range c.Members {
		m.Dead = true
		m.Repl = repl
	}
	if pts != nil {
		for _, m := range c.Members {
			for _, idx := range m.Assoc {
				p := pts[idx]
				if p == c.Center {
					continue
				}
				placed := false
				for _, t := range created {
					if !t.IsSegment() && t.Contains(p) {
						t.Assoc = append(t.Assoc, idx)
						placed = true
						break
					}
				}
				if !placed {
					panic("mesh: associated point fell outside its cavity")
				}
			}
			m.Assoc = nil
		}
	}
	return created
}

// name identifies e across two copies of one mesh: by position for a
// created element, by corners (and liveness) for any other.
func name(e *Element, created []*Element) string {
	if e == nil {
		return "nil"
	}
	if i := slices.Index(created, e); i >= 0 {
		return fmt.Sprintf("new#%d", i)
	}
	return e.String()
}

// applyBoth applies ref (a cavity in one copy of a mesh) through the map
// reference and got (the same cavity in the other copy) through
// Retriangulate, and fails unless both created the same elements in the
// same order, wired the same way on both sides, with the same forwarding
// pointers and association lists — and with each of got's lists a window
// filled to its capacity, so that an append to one leaves its siblings be.
func applyBoth(tb testing.TB, ref, got *Cavity, pts []geom.Point) (refNew, gotNew []*Element) {
	tb.Helper()
	if len(ref.Members) != len(got.Members) || len(ref.frontier) != len(got.frontier) || ref.Center != got.Center {
		tb.Fatalf("cavities differ before applying: %d/%d members, %d/%d frontier edges",
			len(ref.Members), len(got.Members), len(ref.frontier), len(got.frontier))
	}
	refNew, gotNew = retriangulateRef(ref, pts), got.Retriangulate(pts)
	if len(refNew) != len(gotNew) {
		tb.Fatalf("created %d elements, reference %d", len(gotNew), len(refNew))
	}
	for i, g := range gotNew {
		r := refNew[i]
		if g.Pts != r.Pts || g.dim != r.dim || g.Dead || g.Repl != nil {
			tb.Fatalf("created[%d] = %v, reference %v", i, g, r)
		}
		for j := 0; j < g.NEdges(); j++ {
			if gn, rn := name(g.adj[j], gotNew), name(r.adj[j], refNew); gn != rn {
				tb.Fatalf("created[%d] %v edge %d wired to %s, reference %s", i, g, j, gn, rn)
			}
		}
		if !slices.Equal(g.Assoc, r.Assoc) {
			tb.Fatalf("created[%d] %v holds points %v, reference %v", i, g, g.Assoc, r.Assoc)
		}
	}
	for i, g := range gotNew {
		if cap(g.Assoc) != len(g.Assoc) {
			tb.Fatalf("created[%d] %v holds %d points in a list of capacity %d", i, g, len(g.Assoc), cap(g.Assoc))
		}
		_ = append(g.Assoc, -1)
		for k, h := range gotNew {
			if !slices.Equal(h.Assoc, refNew[k].Assoc) {
				tb.Fatalf("appending to created[%d]'s list changed created[%d]'s to %v, reference %v", i, k, h.Assoc, refNew[k].Assoc)
			}
		}
	}
	// The far side: every surviving neighbour points back at the same new
	// triangle.
	for k, gf := range got.frontier {
		gOut, rOut := gf.outside, ref.frontier[k].outside
		if gOut == nil || gOut == got.SplitSeg {
			continue
		}
		u, v := gf.u, gf.v
		if gn, rn := name(gOut.adj[gOut.EdgeIndex(u, v)], gotNew), name(rOut.adj[rOut.EdgeIndex(u, v)], refNew); gn != rn {
			tb.Fatalf("%v across (%v,%v) wired to %s, reference %s", gOut, u, v, gn, rn)
		}
	}
	for k, m := range got.Members {
		if !m.Dead || m.Repl != gotNew[0] || m.Assoc != nil || !ref.Members[k].Dead || ref.Members[k].Repl != refNew[0] {
			tb.Fatalf("member %v not killed and forwarded to created[0]", m)
		}
	}
	return refNew, gotNew
}

func checkMesh(tb testing.TB, root *Element) {
	tb.Helper()
	if err := CheckConforming(root); err != nil {
		tb.Fatal(err)
	}
	if err := CheckDelaunay(root); err != nil {
		tb.Fatal(err)
	}
}

// insertBoth inserts pts, in order, into two copies of the mesh rooted at
// mk(), one through the reference and one through the kernel, with dt's
// association lists riding along when assoc is set (mk must then return a
// single triangle holding every point). It returns live roots of both and
// how many placements were tied between two triangles (tiedPoints).
func insertBoth(tb testing.TB, mk func() *Element, pts []geom.Point, assoc bool) (refRoot, gotRoot *Element, ties int) {
	tb.Helper()
	refRoot, gotRoot = mk(), mk()
	var assocPts []geom.Point
	if assoc {
		assocPts = pts
		for i := range pts {
			refRoot.Assoc = append(refRoot.Assoc, int32(i))
			gotRoot.Assoc = append(gotRoot.Assoc, int32(i))
		}
	}
	for _, p := range pts {
		rt, rv := Locate(refRoot, p, NoAcquire)
		gt, gv := Locate(gotRoot, p, NoAcquire)
		if rv != gv || rt.Pts != gt.Pts {
			tb.Fatalf("locate of %v diverged: %v vs %v", p, rt, gt)
		}
		refRoot, gotRoot = rt, gt
		if gv {
			continue
		}
		refNew, gotNew := applyBoth(tb, BuildInsertion(new(Cavity), rt, p, NoAcquire), BuildInsertion(new(Cavity), gt, p, NoAcquire), assocPts)
		ties += tiedPoints(gotNew, pts)
		refRoot, gotRoot = refNew[0], gotNew[0]
	}
	checkMesh(tb, gotRoot)
	checkMesh(tb, refRoot)
	return refRoot, gotRoot, ties
}

func TestStarWiringMatchesMapReferenceOnInsertion(t *testing.T) {
	pts := geom.BRIO(geom.UniformPoints(1500, 61), 62)
	insertBoth(t, NewSuperTriangle, pts, false)
	insertBoth(t, NewSuperTriangle, pts, true)
	// Unsorted order: long walks and bigger cavities, next to segments.
	insertBoth(t, NewUnitSquare, shrink(geom.UniformPoints(400, 63)), false)
}

// tiedPoints counts the points of created's association lists that some
// other created triangle contains too: points on a spoke or at a frontier
// vertex, which the first-containing rule gives to the first of two.
func tiedPoints(created []*Element, pts []geom.Point) int {
	ties := 0
	for k, t := range created {
		for _, idx := range t.Assoc {
			for i, o := range created {
				if i != k && !o.IsSegment() && o.Contains(pts[idx]) {
					ties++
					break
				}
			}
		}
	}
	return ties
}

// TestWedgePlacementOnDegenerateGrid inserts, with association lists, a
// grid in BRIO order: rows, columns and diagonals of collinear points,
// squares of cocircular ones, and a quarter of the points twice, so
// redistribute meets points on spokes, at frontier vertices and at the
// center. Every cavity is applied both ways, so a wedge test off by its
// boundary or a tie given to the wrong triangle shows as a different list;
// uniform points, which never tie, catch neither.
func TestWedgePlacementOnDegenerateGrid(t *testing.T) {
	const n = 40
	var pts []geom.Point
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pts = append(pts, geom.Point{X: (float64(i) + 0.5) / n, Y: (float64(j) + 0.5) / n})
		}
	}
	_, _, ties := insertBoth(t, NewSuperTriangle, geom.BRIO(append(pts, pts[:n*n/4]...), 111), true)
	t.Logf("%d placements tied between two triangles", ties)
	if ties < 1000 {
		t.Fatalf("only %d tied placements: the test lost its subject", ties)
	}
}

// TestStarWiringMatchesMapReferenceOnRefinement runs dmr's sequential loop
// on two copies of one mesh in lockstep, so every refinement cavity and
// every segment split it meets is applied both ways.
func TestStarWiringMatchesMapReferenceOnRefinement(t *testing.T) {
	refRoot, gotRoot, _ := insertBoth(t, NewUnitSquare, geom.BRIO(shrink(geom.UniformPoints(600, 71)), 72), false)
	refWork, gotWork := badTriangles(refRoot), badTriangles(gotRoot)
	cavities, splits := 0, 0
	for len(gotWork) > 0 {
		if len(refWork) != len(gotWork) {
			t.Fatalf("worklists diverged: %d vs %d", len(refWork), len(gotWork))
		}
		rel, gel := refWork[len(refWork)-1], gotWork[len(gotWork)-1]
		refWork, gotWork = refWork[:len(refWork)-1], gotWork[:len(gotWork)-1]
		if rel.Pts != gel.Pts || rel.Dead != gel.Dead {
			t.Fatalf("worklists diverged: %v vs %v", rel, gel)
		}
		if gel.Dead || !gel.IsBad(geom.Cos30, benchMinEdge2) {
			continue
		}
		ref, got := BuildRefinement(new(Cavity), rel, NoAcquire), BuildRefinement(new(Cavity), gel, NoAcquire)
		if (ref.SplitSeg == nil) != (got.SplitSeg == nil) {
			t.Fatal("one copy split a segment, the other did not")
		}
		cavities++
		if got.SplitSeg != nil {
			splits++
		}
		refNew, gotNew := applyBoth(t, ref, got, nil)
		for i, e := range gotNew {
			if !e.IsSegment() && e.IsBad(geom.Cos30, benchMinEdge2) {
				refWork, gotWork = append(refWork, refNew[i]), append(gotWork, e)
			}
		}
		if !gel.Dead && gel.IsBad(geom.Cos30, benchMinEdge2) {
			refWork, gotWork = append(refWork, rel), append(gotWork, gel)
		}
		refRoot, gotRoot = refNew[0], gotNew[0]
	}
	if cavities < 500 || splits < 20 {
		t.Fatalf("only %d cavities, %d of them segment splits: the test lost its subject", cavities, splits)
	}
	checkMesh(t, gotRoot)
	if err := CheckNoBad(gotRoot, geom.Cos30, benchMinEdge2); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(gotRoot, false) != Fingerprint(refRoot, false) {
		t.Fatal("refined meshes differ")
	}
}

// maxOpenSpokes replays the star pairing of c's frontier on throwaway
// triangles and returns the most spokes that were open at once — what
// Retriangulate's open list must hold for this cavity.
func maxOpenSpokes(c *Cavity) int {
	var open []spoke
	most := 0
	for _, fe := range c.frontier {
		u, v := fe.u, fe.v
		if geom.Orient(u, v, c.Center) <= 0 {
			continue
		}
		t := NewTriangle(u, v, c.Center)
		open = joinSpoke(open, spoke{v, t, slotV})
		open = joinSpoke(open, spoke{u, t, slotU})
		most = max(most, len(open))
	}
	return most
}

// TestCavityLargerThanInlineStorage applies a cavity that outgrows all
// three inline buffers — Members, frontier and the open-spoke list — and
// checks the spill paths against the reference.
func TestCavityLargerThanInlineStorage(t *testing.T) {
	const n = 64
	ref, got := circleCavity(t, n), circleCavity(t, n)
	if &got.Members[0] == &got.memberBuf[0] || &got.frontier[0] == &got.frontBuf[0] {
		t.Fatalf("a %d-member cavity still sits in its inline buffers (%d members, %d edges)", n, inlineMembers, inlineFrontier)
	}
	// Breadth-first frontier order keeps few spokes open. Shuffle it (the
	// same way on both copies) until the open list must spill too.
	r := rng.New(81)
	for tries := 0; maxOpenSpokes(got) <= starInline; tries++ {
		if tries == 10 {
			t.Fatalf("no frontier order of %d edges opened more than %d spokes", len(got.frontier), starInline)
		}
		r.Shuffle(len(got.frontier), func(i, j int) {
			got.frontier[i], got.frontier[j] = got.frontier[j], got.frontier[i]
			ref.frontier[i], ref.frontier[j] = ref.frontier[j], ref.frontier[i]
		})
	}
	_, gotNew := applyBoth(t, ref, got, nil)
	if len(gotNew) != n+2 {
		t.Fatalf("created %d triangles, want %d", len(gotNew), n+2)
	}
	checkMesh(t, gotNew[0])
}

func TestSmallCavityIsOneObject(t *testing.T) {
	cav := circleCavity(t, inlineMembers)
	if &cav.Members[0] != &cav.memberBuf[0] || &cav.frontier[0] != &cav.frontBuf[0] {
		t.Fatalf("a cavity of %d members and %d edges left its inline buffers", len(cav.Members), len(cav.frontier))
	}
	// A frontier of starInline edges never opens more spokes than that.
	cav = circleCavity(t, starInline-2)
	r := rng.New(82)
	for tries := 0; tries < 20; tries++ {
		if most := maxOpenSpokes(cav); most > starInline {
			t.Fatalf("a frontier of %d edges opened %d spokes", len(cav.frontier), most)
		}
		r.Shuffle(len(cav.frontier), func(i, j int) { cav.frontier[i], cav.frontier[j] = cav.frontier[j], cav.frontier[i] })
	}
}

// assocPoints is how many associated points c's members hold.
func assocPoints(c *Cavity) int {
	n := 0
	for _, m := range c.Members {
		n += len(m.Assoc)
	}
	return n
}

// TestCavityAllocationCeilings pins the kernel's allocation contract: one
// insertion or one refinement step into a Cavity the caller supplies costs
// the elements it creates and nothing else, whenever the cavity fits its
// inline storage (and nearly all do): the Cavity holds the members, the
// frontier and the created slice. A dt insertion that moves association
// lists costs one object more, the array the new lists are carved from. A
// map, a regrown slice, a stray temporary or a builder that allocates its
// own Cavity puts every cavity over and trips it.
//
// geom's predicates fall back to big-number arithmetic, which allocates,
// when a determinant is too close to zero to call. A segment split always
// does (its centre lies on the segment's edge of the frontier), so splits
// are left out, and a few cavities in a hundred elsewhere may.
func TestCavityAllocationCeilings(t *testing.T) {
	var fitting, total, over int
	// measure runs step, which applies the cavity that preview predicts
	// (moving association lists when assoc is set).
	measure := func(preview *Cavity, assoc bool, step func()) {
		if preview.SplitSeg != nil {
			step()
			return
		}
		total++
		if len(preview.Members) > inlineMembers || len(preview.frontier) > inlineFrontier || maxOpenSpokes(preview) > starInline ||
			assoc && len(preview.frontier)+assocPoints(preview) > inlineScratch {
			step()
			return
		}
		fitting++
		warm := true
		got := testing.AllocsPerRun(1, func() {
			if warm { // AllocsPerRun's warm-up call: the mesh must not move yet
				warm = false
				return
			}
			step()
		})
		ceiling := len(preview.frontier) // the created elements
		if assoc {
			ceiling++ // and the association array
		}
		if int(got) > ceiling {
			over++
		}
	}
	verdict := func(what string) {
		t.Helper()
		t.Logf("%s: %d cavities, %d fit inline storage, %d of those over their ceiling", what, total, fitting, over)
		if fitting*100 < total*95 || over*100 > fitting*3 {
			t.Errorf("%s: allocation ceiling broken", what)
		}
		fitting, total, over = 0, 0, 0
	}

	// One Cavity serves every step, as in dt.Seq, dmr.Seq and a task's plan.
	cav := new(Cavity)
	hint := NewSuperTriangle()
	for _, p := range geom.BRIO(geom.UniformPoints(600, 91), 92) {
		tri, _ := Locate(hint, p, NoAcquire)
		measure(BuildInsertion(new(Cavity), tri, p, NoAcquire), false, func() { hint, _ = InsertPointSeq(cav, hint, p) })
	}
	verdict("InsertPointSeq")

	// dt's insertion: every point not yet inserted rides in the
	// association list of the triangle that contains it.
	pts := geom.BRIO(geom.UniformPoints(600, 94), 95)
	hint = NewSuperTriangle()
	for i := range pts {
		hint.Assoc = append(hint.Assoc, int32(i))
	}
	for _, p := range pts {
		tri, onVertex := Locate(hint, p, NoAcquire)
		if onVertex {
			continue
		}
		measure(BuildInsertion(new(Cavity), tri, p, NoAcquire), true, func() { hint = BuildInsertion(cav, tri, p, NoAcquire).Retriangulate(pts)[0] })
	}
	verdict("insertion with association lists")

	work := badTriangles(benchDMRInput(400, 93))
	for len(work) > 0 && total < 500 {
		el := work[len(work)-1]
		if el.Dead || !el.IsBad(geom.Cos30, benchMinEdge2) {
			work = work[:len(work)-1]
			continue
		}
		preview := BuildRefinement(new(Cavity), el, NoAcquire)
		// refineStep's own appends must stay inside work's capacity.
		work = slices.Grow(work, len(preview.frontier)+2)
		measure(preview, false, func() { refineStep(cav, &work) })
	}
	verdict("refinement")
}

// TestEncroachingRefinementBuildsOneCavity: when a refinement's expansion
// reaches a segment its circumcenter encroaches, BuildRefinement builds the
// segment split into the cavity it already has, so the whole build into a
// supplied Cavity allocates nothing.
func TestEncroachingRefinementBuildsOneCavity(t *testing.T) {
	encroaching, over := 0, 0
	cav := new(Cavity)
	work := badTriangles(benchDMRInput(400, 96))
	for len(work) > 0 && encroaching < 50 {
		el := work[len(work)-1]
		if !el.Dead && el.IsBad(geom.Cos30, benchMinEdge2) {
			_, blocked := walkToward(el, el.Circumcenter(), NoAcquire)
			if blocked == nil && BuildRefinement(cav, el, NoAcquire).SplitSeg != nil {
				encroaching++
				if got := testing.AllocsPerRun(3, func() { BuildRefinement(cav, el, NoAcquire) }); got != 0 {
					over++
					t.Logf("%v: BuildRefinement allocates %v objects", el, got)
				}
			}
		}
		refineStep(cav, &work)
	}
	t.Logf("%d encroaching refinements, %d of them allocating", encroaching, over)
	if encroaching < 10 || over*10 > encroaching {
		t.Fatalf("%d encroaching refinements, %d of them allocating", encroaching, over)
	}
}
