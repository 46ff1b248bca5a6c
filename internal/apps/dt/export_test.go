package dt

import (
	"sync/atomic"

	"galois"
	"galois/internal/geom"
)

// galoisMoved runs Galois and returns the association points its commits
// moved, in total. The count is a pure function of the schedule, so it is
// exact at one thread.
func galoisMoved(pts []geom.Point, seed uint64, opts ...galois.Option) (*Result, int64) {
	var moved atomic.Int64
	r := galoisWith(pts, seed, &moved, opts...)
	return r, moved.Load()
}
