package geom

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"galois/internal/rng"
)

func TestOrientBasic(t *testing.T) {
	a := Point{0, 0}
	b := Point{1, 0}
	c := Point{0, 1}
	if Orient(a, b, c) != 1 {
		t.Fatal("ccw triple not detected")
	}
	if Orient(a, c, b) != -1 {
		t.Fatal("cw triple not detected")
	}
	if Orient(a, b, Point{2, 0}) != 0 {
		t.Fatal("collinear triple not detected")
	}
}

func TestOrientAntisymmetry(t *testing.T) {
	property := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Point{frac(ax), frac(ay)}, Point{frac(bx), frac(by)}, Point{frac(cx), frac(cy)}
		return Orient(a, b, c) == -Orient(a, c, b)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// frac maps arbitrary float64s into a sane finite range.
func frac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	_, f := math.Modf(v)
	return math.Abs(f)
}

func TestOrientNearDegenerate(t *testing.T) {
	// Points nearly collinear: the filter must defer to exact arithmetic
	// and agree with the rational computation's sign.
	a := Point{0, 0}
	b := Point{1e-20, 1e-20}
	c := Point{2e-20, 2e-20}
	if Orient(a, b, c) != 0 {
		t.Fatal("exactly collinear tiny points misclassified")
	}
	// A point displaced by one ulp off a long line.
	p := Point{0.5, 0.5 + 1e-17}
	got := Orient(Point{0, 0}, Point{1, 1}, p)
	want := orientExact(Point{0, 0}, Point{1, 1}, p)
	if got != want {
		t.Fatalf("filtered orient %d != exact %d", got, want)
	}
}

// TestOrientFromMatchesOrient: given the offsets Sub takes, OrientFrom
// answers as Orient does and as the exact test does, on random triples and
// on grid triples, where collinear ones are common and the filter defers to
// the exact fallback.
func TestOrientFromMatchesOrient(t *testing.T) {
	r := rng.New(13)
	grid := func() float64 { return float64(r.Intn(8)) / 7 }
	for i := 0; i < 4000; i++ {
		a, b, c := Point{r.Float64(), r.Float64()}, Point{r.Float64(), r.Float64()}, Point{r.Float64(), r.Float64()}
		if i%2 == 1 {
			a, b, c = Point{grid(), grid()}, Point{grid(), grid()}, Point{grid(), grid()}
		}
		got := OrientFrom(a, b, c, Sub(a, c), Sub(b, c))
		if want := orientExact(a, b, c); got != want || Orient(a, b, c) != want {
			t.Fatalf("%v %v %v: OrientFrom %d, Orient %d, exact %d", a, b, c, got, Orient(a, b, c), want)
		}
	}
}

// TestCos30 pins the literal: √3/2 rounded (math.Sqrt is correctly rounded
// on every port), and on amd64, where math.Cos is pure Go and nothing is
// fused, bit for bit the value math.Cos(30°) gave it before.
func TestCos30(t *testing.T) {
	if got, want := math.Float64bits(Cos30), math.Float64bits(math.Sqrt(3)/2); got != want {
		t.Fatalf("Cos30 bits %#x, √3/2 %#x", got, want)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Cos is not the amd64 pure-Go code on %s", runtime.GOARCH)
	}
	if got, want := math.Float64bits(Cos30), math.Float64bits(math.Cos(30*math.Pi/180)); got != want {
		t.Fatalf("Cos30 bits %#x, math.Cos(30°) %#x", got, want)
	}
}

func TestInCircleBasic(t *testing.T) {
	// Unit circle through (±1,0),(0,1), CCW.
	a, b, c := Point{-1, 0}, Point{1, 0}, Point{0, 1}
	if InCircle(a, b, c, Point{0, 0}) != 1 {
		t.Fatal("center not inside")
	}
	if InCircle(a, b, c, Point{2, 2}) != -1 {
		t.Fatal("far point not outside")
	}
	if InCircle(a, b, c, Point{0, -1}) != 0 {
		t.Fatal("cocircular point not on circle")
	}
}

func TestInCircleMatchesExact(t *testing.T) {
	r := rng.New(12)
	for i := 0; i < 2000; i++ {
		a := Point{r.Float64(), r.Float64()}
		b := Point{r.Float64(), r.Float64()}
		c := Point{r.Float64(), r.Float64()}
		d := Point{r.Float64(), r.Float64()}
		if Orient(a, b, c) <= 0 {
			a, b = b, a
		}
		if Orient(a, b, c) <= 0 {
			continue
		}
		if got, want := InCircle(a, b, c, d), inCircleExact(a, b, c, d); got != want {
			t.Fatalf("iter %d: filtered %d != exact %d", i, got, want)
		}
	}
}

func TestInCircleVertexOnCircle(t *testing.T) {
	a, b, c := Point{0, 0}, Point{1, 0}, Point{0.3, 0.8}
	for _, v := range []Point{a, b, c} {
		if InCircle(a, b, c, v) != 0 {
			t.Fatalf("triangle vertex %v not on own circumcircle", v)
		}
	}
}

func TestCircumcenterEquidistant(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		a := Point{r.Float64(), r.Float64()}
		b := Point{r.Float64(), r.Float64()}
		c := Point{r.Float64(), r.Float64()}
		if Orient(a, b, c) == 0 {
			continue
		}
		cc := Circumcenter(a, b, c)
		da, db, dc := Dist2(cc, a), Dist2(cc, b), Dist2(cc, c)
		scale := da + db + dc
		if math.Abs(da-db) > 1e-9*scale || math.Abs(db-dc) > 1e-9*scale {
			t.Fatalf("circumcenter not equidistant: %v %v %v", da, db, dc)
		}
	}
}

func TestMinAngleBelow(t *testing.T) {
	// Equilateral: min angle 60°, not below 30°.
	eq := []Point{{0, 0}, {1, 0}, {0.5, math.Sqrt(3) / 2}}
	if MinAngleBelow(eq[0], eq[1], eq[2], Cos30) {
		t.Fatal("equilateral flagged as bad")
	}
	// Sliver: tiny angle at the acute vertex.
	if !MinAngleBelow(Point{0, 0}, Point{1, 0}, Point{0.5, 0.01}, Cos30) {
		t.Fatal("sliver not flagged")
	}
	// Right isoceles: min angle 45°.
	if MinAngleBelow(Point{0, 0}, Point{1, 0}, Point{0, 1}, Cos30) {
		t.Fatal("right isoceles flagged as bad")
	}
	// Exactly ~29 degrees.
	theta := 29 * math.Pi / 180
	tri := []Point{{0, 0}, {1, 0}, {math.Cos(theta) * 2, math.Sin(theta) * 2}}
	if !MinAngleBelow(tri[0], tri[1], tri[2], Cos30) {
		t.Fatal("29-degree angle not flagged")
	}
}

func TestInDiametralCircle(t *testing.T) {
	a, b := Point{0, 0}, Point{2, 0}
	if !InDiametralCircle(a, b, Point{1, 0.5}) {
		t.Fatal("point inside diametral circle not detected")
	}
	if InDiametralCircle(a, b, Point{1, 1.5}) {
		t.Fatal("point outside diametral circle misdetected")
	}
	if InDiametralCircle(a, b, Point{1, 1}) {
		t.Fatal("boundary point should not be strictly inside")
	}
}

func TestUniformPointsDeterministic(t *testing.T) {
	a := UniformPoints(100, 3)
	b := UniformPoints(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
	for _, p := range a {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Fatalf("point out of unit square: %v", p)
		}
	}
}

func TestHilbertSortPreservesMultiset(t *testing.T) {
	pts := UniformPoints(500, 9)
	orig := map[Point]int{}
	for _, p := range pts {
		orig[p]++
	}
	HilbertSort(pts)
	got := map[Point]int{}
	for _, p := range pts {
		got[p]++
	}
	if len(orig) != len(got) {
		t.Fatal("multiset changed")
	}
	for p, c := range orig {
		if got[p] != c {
			t.Fatal("multiset changed")
		}
	}
}

// hilbertSortStable is HilbertSort as it was before it sorted packed keys:
// a stable sort of an index slice by curve distance. TestHilbertSortPinned
// holds the packed-key sort to its order.
func hilbertSortStable(pts []Point) {
	if len(pts) < 2 {
		return
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX, minY = min(minX, p.X), min(minY, p.Y)
		maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
	}
	sx, sy := maxX-minX, maxY-minY
	if sx == 0 {
		sx = 1
	}
	if sy == 0 {
		sy = 1
	}
	const order = 16
	const side = 1 << order
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = hilbertD(order, uint32((p.X-minX)/sx*(side-1)), uint32((p.Y-minY)/sy*(side-1)))
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]Point, len(pts))
	for i, j := range idx {
		out[i] = pts[j]
	}
	copy(pts, out)
}

// TestHilbertSortPinned: HilbertSort reorders points exactly as the stable
// index sort did — on uniform points of every size dt and the benchmark
// sort, and on a grid whose points repeat, where many share a cell and
// only the tie order separates the two.
func TestHilbertSortPinned(t *testing.T) {
	cases := map[string][]Point{}
	for _, n := range []int{0, 1, 2, 10, 1_000, 6_000, 50_000} {
		cases[fmt.Sprintf("uniform/%d", n)] = UniformPoints(n, uint64(n)+5)
	}
	var grid []Point
	for i := 0; i < 3_000; i++ {
		grid = append(grid, Point{X: float64(i % 7), Y: float64(i % 11)}, Point{X: float64(i%7) + 1e-9, Y: float64(i % 11)})
	}
	cases["grid"] = grid
	for name, pts := range cases {
		got, want := slices.Clone(pts), slices.Clone(pts)
		HilbertSort(got)
		hilbertSortStable(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: HilbertSort's order differs from the stable index sort's", name)
		}
	}
}

func TestHilbertSortLocality(t *testing.T) {
	pts := UniformPoints(2000, 4)
	var before float64
	for i := 1; i < len(pts); i++ {
		before += math.Sqrt(Dist2(pts[i-1], pts[i]))
	}
	HilbertSort(pts)
	var after float64
	for i := 1; i < len(pts); i++ {
		after += math.Sqrt(Dist2(pts[i-1], pts[i]))
	}
	if after > before/4 {
		t.Fatalf("hilbert order did not improve locality: before=%v after=%v", before, after)
	}
}

func TestBRIOPreservesMultisetAndIsDeterministic(t *testing.T) {
	pts := UniformPoints(1000, 8)
	a := BRIO(pts, 1)
	b := BRIO(pts, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("BRIO not deterministic")
		}
	}
	orig := map[Point]int{}
	for _, p := range pts {
		orig[p]++
	}
	for _, p := range a {
		orig[p]--
	}
	for _, c := range orig {
		if c != 0 {
			t.Fatal("BRIO changed the multiset")
		}
	}
}

func TestHilbertDistinctCells(t *testing.T) {
	seen := map[uint64]bool{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			d := hilbertD(3, x, y)
			if seen[d] {
				t.Fatalf("duplicate hilbert index %d", d)
			}
			seen[d] = true
			if d >= 64 {
				t.Fatalf("index %d out of range", d)
			}
		}
	}
}
