// Package geom provides the 2-D computational-geometry substrate for the
// Delaunay benchmarks: points, robust orientation and in-circle predicates,
// circumcenters, angle tests and spatially-local point orderings.
//
// Predicates use a floating-point filter with a conservative error bound
// and fall back to exact rational arithmetic (math/big) in the rare
// near-degenerate cases, following the structure (not the code) of
// Shewchuk's adaptive predicates. Exactness matters doubly here: it keeps
// the mesh structurally sound, and it keeps task neighborhoods — and
// therefore the deterministic schedule — a pure function of the input.
package geom

import (
	"math"
	"math/big"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// epsilon is the double-precision machine epsilon (2^-53).
const epsilon = 1.1102230246251565e-16

// Error-bound coefficients, conservative variants of Shewchuk's constants.
var (
	orientBound   = (3.0 + 16.0*epsilon) * epsilon
	incircleBound = (10.0 + 96.0*epsilon) * epsilon
)

// Orient computes the orientation of the triple (a, b, c):
// +1 if counterclockwise, -1 if clockwise, 0 if collinear. Exact.
func Orient(a, b, c Point) int { return OrientFrom(a, b, c, Sub(a, c), Sub(b, c)) }

// Sub returns the offset a - b.
func Sub(a, b Point) Point { return Point{X: a.X - b.X, Y: a.Y - b.Y} }

// OrientFrom is Orient(a, b, c) given the offsets ac = Sub(a, c) and
// bc = Sub(b, c), for a caller that tests many points around one c and
// takes each offset once. Orient is OrientFrom over offsets it takes
// itself, so the two decide by the same filter and exact fallback.
func OrientFrom(a, b, c, ac, bc Point) int {
	detleft := ac.X * bc.Y
	detright := ac.Y * bc.X
	det := detleft - detright
	var detsum float64
	switch {
	case detleft > 0:
		if detright <= 0 {
			return sign(det)
		}
		detsum = detleft + detright
	case detleft < 0:
		if detright >= 0 {
			return sign(det)
		}
		detsum = -detleft - detright
	default:
		return sign(det)
	}
	if det >= orientBound*detsum || -det >= orientBound*detsum {
		return sign(det)
	}
	return orientExact(a, b, c)
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func orientExact(a, b, c Point) int {
	ax, ay := big.NewFloat(a.X), big.NewFloat(a.Y)
	bx, by := big.NewFloat(b.X), big.NewFloat(b.Y)
	cx, cy := big.NewFloat(c.X), big.NewFloat(c.Y)
	// Use big.Float with enough precision for exact products of doubles
	// (53*2 bits) and exact sums (a few more); 200 bits is ample.
	const prec = 200
	for _, f := range []*big.Float{ax, ay, bx, by, cx, cy} {
		f.SetPrec(prec)
	}
	t1 := new(big.Float).SetPrec(prec).Sub(ax, cx)
	t2 := new(big.Float).SetPrec(prec).Sub(by, cy)
	t3 := new(big.Float).SetPrec(prec).Sub(ay, cy)
	t4 := new(big.Float).SetPrec(prec).Sub(bx, cx)
	l := new(big.Float).SetPrec(prec).Mul(t1, t2)
	r := new(big.Float).SetPrec(prec).Mul(t3, t4)
	return l.Cmp(r)
}

// InCircle reports whether d lies strictly inside the circumcircle of the
// counterclockwise triangle (a, b, c): +1 inside, -1 outside, 0 on the
// circle. Exact.
func InCircle(a, b, c, d Point) int {
	adx := a.X - d.X
	ady := a.Y - d.Y
	bdx := b.X - d.X
	bdy := b.Y - d.Y
	cdx := c.X - d.X
	cdy := c.Y - d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	errbound := incircleBound * permanent
	if det > errbound || -det > errbound {
		return sign(det)
	}
	return inCircleExact(a, b, c, d)
}

func inCircleExact(a, b, c, d Point) int {
	// Exact 4x4 determinant over rationals (doubles convert exactly).
	ax := new(big.Rat).SetFloat64(a.X)
	ay := new(big.Rat).SetFloat64(a.Y)
	bx := new(big.Rat).SetFloat64(b.X)
	by := new(big.Rat).SetFloat64(b.Y)
	cx := new(big.Rat).SetFloat64(c.X)
	cy := new(big.Rat).SetFloat64(c.Y)
	dx := new(big.Rat).SetFloat64(d.X)
	dy := new(big.Rat).SetFloat64(d.Y)

	sub := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Sub(p, q) }
	mul := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Mul(p, q) }
	add := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Add(p, q) }

	adx, ady := sub(ax, dx), sub(ay, dy)
	bdx, bdy := sub(bx, dx), sub(by, dy)
	cdx, cdy := sub(cx, dx), sub(cy, dy)

	alift := add(mul(adx, adx), mul(ady, ady))
	blift := add(mul(bdx, bdx), mul(bdy, bdy))
	clift := add(mul(cdx, cdx), mul(cdy, cdy))

	t1 := sub(mul(bdx, cdy), mul(cdx, bdy))
	t2 := sub(mul(cdx, ady), mul(adx, cdy))
	t3 := sub(mul(adx, bdy), mul(bdx, ady))

	det := add(add(mul(alift, t1), mul(blift, t2)), mul(clift, t3))
	return det.Sign()
}

// Circumcenter returns the circumcenter of triangle (a, b, c). The triangle
// must not be degenerate.
func Circumcenter(a, b, c Point) Point {
	abx := b.X - a.X
	aby := b.Y - a.Y
	acx := c.X - a.X
	acy := c.Y - a.Y
	d := 2 * (abx*acy - aby*acx)
	abl := abx*abx + aby*aby
	acl := acx*acx + acy*acy
	ux := (acy*abl - aby*acl) / d
	uy := (abx*acl - acx*abl) / d
	return Point{X: a.X + ux, Y: a.Y + uy}
}

// Dist2 returns the squared Euclidean distance between p and q.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// MinAngleBelow reports whether the smallest angle of triangle (a, b, c) is
// smaller than the angle whose cosine is cosBound. It compares squared
// cosines computed from dot products, avoiding trigonometric calls.
func MinAngleBelow(a, b, c Point, cosBound float64) bool {
	// The smallest angle is opposite the shortest side; equivalently the
	// largest cosine among the three vertex angles. cos θ at vertex a =
	// (ab·ac)/(|ab||ac|).
	cb2 := cosBound * cosBound
	check := func(p, q, r Point) bool {
		// angle at p
		ux, uy := q.X-p.X, q.Y-p.Y
		vx, vy := r.X-p.X, r.Y-p.Y
		dot := ux*vx + uy*vy
		if dot <= 0 {
			return false // angle >= 90°
		}
		// cos²θ > cos²bound  ⇔  θ < bound (for θ, bound in (0°, 90°))
		return dot*dot > cb2*(ux*ux+uy*uy)*(vx*vx+vy*vy)
	}
	return check(a, b, c) || check(b, c, a) || check(c, a, b)
}

// Cos30 is the cosine of the paper's 30-degree quality bound for Delaunay
// mesh refinement, cos 30° = √3/2 rounded to float64. It is a literal, not
// math.Cos(30°) at init: math.Cos is assembly on s390x, and dmr's output
// must not depend on the port that computed its bound.
var Cos30 = 0.8660254037844386

// InDiametralCircle reports whether p lies strictly inside the diametral
// circle of segment (a, b) — the encroachment test of Ruppert's algorithm.
func InDiametralCircle(a, b, p Point) bool {
	// p is inside the circle with diameter ab iff angle apb > 90°,
	// i.e. (a-p)·(b-p) < 0.
	return (a.X-p.X)*(b.X-p.X)+(a.Y-p.Y)*(b.Y-p.Y) < 0
}

// Midpoint returns the midpoint of segment (a, b).
func Midpoint(a, b Point) Point { return Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2} }
