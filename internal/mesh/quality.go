package mesh

import (
	"fmt"
	"math"
	"strings"

	"galois/internal/geom"
)

// QualityReport summarizes the angle quality of a mesh — the quantity
// Delaunay refinement improves. Angles are in degrees.
type QualityReport struct {
	// Triangles is the number of live triangles measured.
	Triangles int
	// MinAngle is the smallest angle in the mesh.
	MinAngle float64
	// MeanMinAngle is the mean over triangles of each one's smallest
	// angle.
	MeanMinAngle float64
	// Histogram buckets the per-triangle minimum angle into 6-degree
	// bins: [0,6), [6,12), ..., [54,60].
	Histogram [10]int
}

// minAngleDeg returns the triangle's smallest angle in degrees.
func minAngleDeg(e *Element) float64 {
	angle := func(p, q, r geom.Point) float64 {
		ux, uy := q.X-p.X, q.Y-p.Y
		vx, vy := r.X-p.X, r.Y-p.Y
		dot := ux*vx + uy*vy
		nu := math.Sqrt(ux*ux + uy*uy)
		nv := math.Sqrt(vx*vx + vy*vy)
		if nu == 0 || nv == 0 {
			return 0
		}
		c := dot / (nu * nv)
		c = math.Max(-1, math.Min(1, c))
		return math.Acos(c) * 180 / math.Pi
	}
	a1 := angle(e.Pts[0], e.Pts[1], e.Pts[2])
	a2 := angle(e.Pts[1], e.Pts[2], e.Pts[0])
	a3 := angle(e.Pts[2], e.Pts[0], e.Pts[1])
	return math.Min(a1, math.Min(a2, a3))
}

// Quality measures the mesh rooted at root. Triangles touching super
// vertices are excluded when excludeSuper is set.
func Quality(root *Element, excludeSuper bool) QualityReport {
	var rep QualityReport
	rep.MinAngle = 180
	var sum float64
	for _, e := range Triangles(root) {
		if excludeSuper && touchesSuper(e) {
			continue
		}
		m := minAngleDeg(e)
		rep.Triangles++
		sum += m
		if m < rep.MinAngle {
			rep.MinAngle = m
		}
		bin := int(m / 6)
		if bin >= len(rep.Histogram) {
			bin = len(rep.Histogram) - 1
		}
		rep.Histogram[bin]++
	}
	if rep.Triangles > 0 {
		rep.MeanMinAngle = sum / float64(rep.Triangles)
	} else {
		rep.MinAngle = 0
	}
	return rep
}

// String renders the report with a small text histogram.
func (r QualityReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d triangles, min angle %.2f°, mean min angle %.2f°\n",
		r.Triangles, r.MinAngle, r.MeanMinAngle)
	maxCount := 1
	for _, c := range r.Histogram {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range r.Histogram {
		bar := strings.Repeat("#", c*40/maxCount)
		fmt.Fprintf(&sb, "  [%2d°-%2d°) %7d %s\n", i*6, (i+1)*6, c, bar)
	}
	return sb.String()
}
