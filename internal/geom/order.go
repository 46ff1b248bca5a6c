package geom

import (
	"slices"

	"galois/internal/rng"
)

// UniformPoints generates n points uniformly at random in the unit square,
// deterministically in seed. This is the paper's dt/dmr input family
// (§4.2): "points randomly selected from the unit square".
func UniformPoints(n int, seed uint64) []Point {
	r := rng.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: r.Float64(), Y: r.Float64()}
	}
	return pts
}

// HilbertSort orders points along a Hilbert space-filling curve of the
// given order over their bounding box, in place. Spatially adjacent points
// become adjacent in the order, which keeps incremental-insertion walks
// short.
func HilbertSort(pts []Point) {
	if len(pts) < 2 {
		return
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX = min(minX, p.X)
		minY = min(minY, p.Y)
		maxX = max(maxX, p.X)
		maxY = max(maxY, p.Y)
	}
	sx := maxX - minX
	sy := maxY - minY
	if sx == 0 {
		sx = 1
	}
	if sy == 0 {
		sy = 1
	}
	const order = 16 // 2^16 cells per axis
	const side = 1 << order
	// Each key packs the point's curve distance (below 2^32 at order 16)
	// over its index (below 2^32 too), so sorting the keys as integers
	// orders points by distance and ties by input order: a stable sort.
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		x := uint32((p.X - minX) / sx * (side - 1))
		y := uint32((p.Y - minY) / sy * (side - 1))
		keys[i] = hilbertD(order, x, y)<<32 | uint64(i)
	}
	slices.Sort(keys)
	out := make([]Point, len(pts))
	for i, k := range keys {
		out[i] = pts[uint32(k)]
	}
	copy(pts, out)
}

// hilbertD maps cell (x, y) to its distance along a Hilbert curve of the
// given order (standard bit-twiddling conversion).
func hilbertD(order int, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s /= 2 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// BRIO reorders points into a biased randomized insertion order (Amenta,
// Choi, Rote): points are shuffled, split into doubling-size rounds, and
// each round is Hilbert-sorted. Incremental Delaunay insertion in this
// order runs in expected O(n log n) time with short locate walks — the
// online reordering the Lonestar dt variant performs (§4.1).
func BRIO(pts []Point, seed uint64) []Point {
	out := append([]Point(nil), pts...)
	r := rng.New(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	// Rounds of doubling size from the end: the last round holds about
	// half the points.
	end := len(out)
	for end > 0 {
		start := end / 2
		HilbertSort(out[start:end])
		end = start
	}
	return out
}
