package mesh

import (
	"testing"

	"galois/internal/geom"
)

func TestNewTriangleNormalizesCCW(t *testing.T) {
	a, b, c := geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0}, geom.Point{X: 0, Y: 1}
	for _, tri := range []*Element{NewTriangle(a, b, c), NewTriangle(a, c, b)} {
		if geom.Orient(tri.Pts[0], tri.Pts[1], tri.Pts[2]) != 1 {
			t.Fatal("triangle not CCW")
		}
	}
}

func TestNewTrianglePanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTriangle(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}, geom.Point{X: 2, Y: 2})
}

func TestEdgeIndexAndWire(t *testing.T) {
	a, b, c, d := geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0}, geom.Point{X: 0, Y: 1}, geom.Point{X: 1, Y: 1}
	t1 := NewTriangle(a, b, c)
	t2 := NewTriangle(b, d, c)
	Wire(t1, t2, b, c)
	i := t1.EdgeIndex(b, c)
	j := t2.EdgeIndex(c, b)
	if i < 0 || j < 0 {
		t.Fatal("edge not found")
	}
	if t1.Adj(i) != t2 || t2.Adj(j) != t1 {
		t.Fatal("wire did not link both sides")
	}
	if t1.EdgeIndex(a, d) != -1 {
		t.Fatal("nonexistent edge found")
	}
}

func TestContains(t *testing.T) {
	tri := NewTriangle(geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 0}, geom.Point{X: 0, Y: 2})
	if !tri.Contains(geom.Point{X: 0.5, Y: 0.5}) {
		t.Fatal("interior point not contained")
	}
	if !tri.Contains(geom.Point{X: 1, Y: 0}) {
		t.Fatal("boundary point not contained")
	}
	if tri.Contains(geom.Point{X: 2, Y: 2}) {
		t.Fatal("exterior point contained")
	}
}

func TestUnitSquareConforming(t *testing.T) {
	root := NewUnitSquare()
	if err := CheckConforming(root); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(root); err != nil {
		t.Fatal(err)
	}
	live := Live(root)
	nseg, ntri := 0, 0
	for _, e := range live {
		if e.IsSegment() {
			nseg++
		} else {
			ntri++
		}
	}
	if ntri != 2 || nseg != 4 {
		t.Fatalf("unit square has %d triangles, %d segments", ntri, nseg)
	}
}

func TestInsertSinglePoint(t *testing.T) {
	root := NewSuperTriangle()
	hint, ok := InsertPointSeq(new(Cavity), root, geom.Point{X: 0.5, Y: 0.5})
	if !ok {
		t.Fatal("insertion failed")
	}
	if err := CheckConforming(hint); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(hint); err != nil {
		t.Fatal(err)
	}
	if got := len(Triangles(hint)); got != 3 {
		t.Fatalf("got %d triangles, want 3", got)
	}
}

func TestInsertDuplicateIsNoop(t *testing.T) {
	root := NewSuperTriangle()
	hint, _ := InsertPointSeq(new(Cavity), root, geom.Point{X: 0.5, Y: 0.5})
	hint2, ok := InsertPointSeq(new(Cavity), hint, geom.Point{X: 0.5, Y: 0.5})
	if ok {
		t.Fatal("duplicate insertion succeeded")
	}
	if got := len(Triangles(hint2)); got != 3 {
		t.Fatalf("duplicate changed the mesh: %d triangles", got)
	}
}

func TestInsertPointOnEdge(t *testing.T) {
	root := NewSuperTriangle()
	hint, _ := InsertPointSeq(new(Cavity), root, geom.Point{X: 0.25, Y: 0.25})
	hint, _ = InsertPointSeq(new(Cavity), hint, geom.Point{X: 0.75, Y: 0.75})
	// A point on the shared edge between two triangles.
	hint, ok := InsertPointSeq(new(Cavity), hint, geom.Point{X: 0.5, Y: 0.5})
	if !ok {
		t.Fatal("on-edge insertion failed")
	}
	if err := CheckConforming(hint); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(hint); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDelaunaySeqRandom(t *testing.T) {
	pts := geom.UniformPoints(500, 11)
	root, inserted := BuildDelaunaySeq(NewSuperTriangle(), pts)
	if inserted != 500 {
		t.Fatalf("inserted %d of 500", inserted)
	}
	if err := CheckConforming(root); err != nil {
		t.Fatal(err)
	}
	if err := CheckDelaunay(root); err != nil {
		t.Fatal(err)
	}
	// Euler: a triangulation of n interior points inside a triangle has
	// 2n+1 triangles; with far-away super vertices every input point is
	// interior.
	if got := CountTriangles(root, false); got != 2*500+1 {
		t.Fatalf("triangle count = %d, want %d", got, 2*500+1)
	}
}

func TestDelaunayOrderIndependence(t *testing.T) {
	// The Delaunay triangulation of points in general position is unique:
	// different insertion orders must produce identical meshes.
	pts := geom.UniformPoints(300, 21)
	rootA, _ := BuildDelaunaySeq(NewSuperTriangle(), pts)
	rev := make([]geom.Point, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	rootB, _ := BuildDelaunaySeq(NewSuperTriangle(), rev)
	if Fingerprint(rootA, true) != Fingerprint(rootB, true) {
		t.Fatal("insertion order changed the Delaunay triangulation")
	}
}

func TestBRIOOrderBuildsSameMesh(t *testing.T) {
	pts := geom.UniformPoints(400, 31)
	rootA, _ := BuildDelaunaySeq(NewSuperTriangle(), pts)
	rootB, _ := BuildDelaunaySeq(NewSuperTriangle(), geom.BRIO(pts, 7))
	if Fingerprint(rootA, true) != Fingerprint(rootB, true) {
		t.Fatal("BRIO order changed the triangulation")
	}
}

func TestLocateFindsContainingTriangle(t *testing.T) {
	pts := geom.UniformPoints(200, 41)
	root, _ := BuildDelaunaySeq(NewSuperTriangle(), pts)
	probe := geom.UniformPoints(100, 42)
	for _, p := range probe {
		tri, onVertex := Locate(root, p, NoAcquire)
		if onVertex {
			continue
		}
		if !tri.Contains(p) {
			t.Fatalf("Locate returned non-containing triangle for %v", p)
		}
	}
}

func TestLocateOnVertex(t *testing.T) {
	pts := geom.UniformPoints(50, 43)
	root, _ := BuildDelaunaySeq(NewSuperTriangle(), pts)
	for _, p := range pts[:10] {
		_, onVertex := Locate(root, p, NoAcquire)
		if !onVertex {
			t.Fatalf("existing vertex %v not detected", p)
		}
	}
}

func TestResolveFollowsForwarding(t *testing.T) {
	root := NewSuperTriangle()
	hint, _ := InsertPointSeq(new(Cavity), root, geom.Point{X: 0.3, Y: 0.3})
	if !root.Dead {
		t.Fatal("original super triangle should be dead")
	}
	var acquired []*Element
	live := Resolve(root, func(e *Element) { acquired = append(acquired, e) })
	if live.Dead {
		t.Fatal("Resolve returned a dead element")
	}
	if len(acquired) < 2 {
		t.Fatal("Resolve did not acquire the chain")
	}
	_ = hint
}

func TestSegmentSplit(t *testing.T) {
	root := NewUnitSquare()
	// Find a boundary segment.
	var seg *Element
	for _, e := range Live(root) {
		if e.IsSegment() {
			seg = e
			break
		}
	}
	cav := buildSegmentSplit(new(Cavity), seg, NoAcquire)
	created := cav.Retriangulate(nil)
	nseg := 0
	for _, e := range created {
		if e.IsSegment() {
			nseg++
		}
	}
	if nseg != 2 {
		t.Fatalf("split created %d segments, want 2", nseg)
	}
	if !seg.Dead {
		t.Fatal("split segment not killed")
	}
	liveRoot := created[0]
	if err := CheckConforming(liveRoot); err != nil {
		t.Fatal(err)
	}
	// Still 4 sides' worth of segments plus one extra.
	nsegLive := 0
	for _, e := range Live(liveRoot) {
		if e.IsSegment() {
			nsegLive++
		}
	}
	if nsegLive != 5 {
		t.Fatalf("live segments = %d, want 5", nsegLive)
	}
}

func TestRefinementCavityOnBadTriangle(t *testing.T) {
	// Build a small square mesh with one interior point near a corner,
	// producing sliver triangles, then refine one and check the mesh
	// stays conforming.
	root := NewUnitSquare()
	hint, ok := InsertPointSeq(new(Cavity), root, geom.Point{X: 0.5, Y: 0.02})
	if !ok {
		t.Fatal("seed insertion failed")
	}
	var bad *Element
	for _, e := range Triangles(hint) {
		if e.IsBad(geom.Cos30, 0) {
			bad = e
			break
		}
	}
	if bad == nil {
		t.Skip("no bad triangle in this configuration")
	}
	cav := BuildRefinement(new(Cavity), bad, NoAcquire)
	if cav == nil {
		t.Fatal("refinement cavity not built")
	}
	created := cav.Retriangulate(nil)
	if err := CheckConforming(created[0]); err != nil {
		t.Fatal(err)
	}
}

func TestAssocRedistribution(t *testing.T) {
	pts := []geom.Point{
		{X: 0.5, Y: 0.5}, {X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.1}, {X: 0.2, Y: 0.8},
	}
	root := NewSuperTriangle()
	root.Assoc = []int32{0, 1, 2, 3}
	tri, onV := Locate(root, pts[0], NoAcquire)
	if onV {
		t.Fatal("unexpected vertex hit")
	}
	cav := BuildInsertion(new(Cavity), tri, pts[0], NoAcquire)
	created := cav.Retriangulate(pts)
	total := 0
	for _, e := range created {
		if e.IsSegment() {
			continue
		}
		for _, idx := range e.Assoc {
			if idx == 0 {
				t.Fatal("inserted point still associated")
			}
			if !e.Contains(pts[idx]) {
				t.Fatalf("point %d associated with non-containing triangle", idx)
			}
			total++
		}
	}
	if total != 3 {
		t.Fatalf("redistributed %d points, want 3", total)
	}
	if root.Assoc != nil {
		t.Fatal("dead member kept its association list")
	}
}

func TestFingerprintDetectsDifference(t *testing.T) {
	ptsA := geom.UniformPoints(50, 1)
	ptsB := geom.UniformPoints(50, 2)
	rootA, _ := BuildDelaunaySeq(NewSuperTriangle(), ptsA)
	rootB, _ := BuildDelaunaySeq(NewSuperTriangle(), ptsB)
	if Fingerprint(rootA, true) == Fingerprint(rootB, true) {
		t.Fatal("different point sets produced identical fingerprints")
	}
}

func TestIsBadFloor(t *testing.T) {
	// A sliver below the edge-length floor is not bad.
	tiny := NewTriangle(geom.Point{X: 0, Y: 0}, geom.Point{X: 1e-4, Y: 0}, geom.Point{X: 5e-5, Y: 1e-6})
	if !tiny.IsBad(geom.Cos30, 0) {
		t.Fatal("sliver should be bad with no floor")
	}
	if tiny.IsBad(geom.Cos30, 1e-6) {
		t.Fatal("sliver below floor should not be bad")
	}
}

func TestQualityReport(t *testing.T) {
	pts := geom.UniformPoints(200, 51)
	root, _ := BuildDelaunaySeq(NewSuperTriangle(), pts)
	rep := Quality(root, true)
	if rep.Triangles == 0 {
		t.Fatal("no triangles measured")
	}
	if rep.MinAngle <= 0 || rep.MinAngle > 60 {
		t.Fatalf("min angle %v out of range", rep.MinAngle)
	}
	if rep.MeanMinAngle < rep.MinAngle {
		t.Fatal("mean below min")
	}
	total := 0
	for _, c := range rep.Histogram {
		total += c
	}
	if total != rep.Triangles {
		t.Fatalf("histogram sums to %d, want %d", total, rep.Triangles)
	}
	if rep.String() == "" {
		t.Fatal("empty render")
	}
}

func TestQualityEquilateral(t *testing.T) {
	tr := NewTriangle(geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 0},
		geom.Point{X: 0.5, Y: 0.8660254037844386})
	rep := Quality(tr, false)
	if rep.Triangles != 1 {
		t.Fatalf("triangles = %d", rep.Triangles)
	}
	if rep.MinAngle < 59.9 || rep.MinAngle > 60.1 {
		t.Fatalf("equilateral min angle = %v", rep.MinAngle)
	}
}
