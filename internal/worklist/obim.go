package worklist

import (
	"sync/atomic"
)

// OBIM is an ordered-by-integer-metric worklist, the Galois scheduler's
// signature policy: tasks carry a small integer priority and workers drain
// lower-priority buckets first, best-effort. Like everything about the
// non-deterministic scheduler, the order is a performance hint only —
// data-driven algorithms such as delta-stepping-style bfs or preflow-push
// converge much faster near priority order, but remain correct under any
// order.
//
// Buckets are ChunkedLIFO worklists (per-thread chunks with stealing); a
// shared monotona-ish hint tracks the lowest possibly-nonempty level so
// pops do not scan from zero each time.
type OBIM[T any] struct {
	buckets []*ChunkedLIFO[T]
	minHint atomic.Int64
}

// NewOBIM returns an OBIM with the given number of priority levels for
// nthreads threads. Priorities outside [0, levels) are clamped.
func NewOBIM[T any](nthreads, levels int) *OBIM[T] {
	if levels < 1 {
		levels = 1
	}
	o := &OBIM[T]{buckets: make([]*ChunkedLIFO[T], levels)}
	for i := range o.buckets {
		o.buckets[i] = NewChunkedLIFO[T](nthreads)
	}
	return o
}

func (o *OBIM[T]) clamp(prio int) int {
	if prio < 0 {
		return 0
	}
	if prio >= len(o.buckets) {
		return len(o.buckets) - 1
	}
	return prio
}

// PushPrio adds item at the given priority on thread tid's queue.
func (o *OBIM[T]) PushPrio(tid int, item T, prio int) {
	p := o.clamp(prio)
	o.buckets[p].Push(tid, item)
	// Lower the hint if this push went below it.
	for {
		cur := o.minHint.Load()
		if int64(p) >= cur || o.minHint.CompareAndSwap(cur, int64(p)) {
			return
		}
	}
}

// Pop removes a task, preferring the lowest non-empty priority level. ok is
// false when no task was found in any bucket.
func (o *OBIM[T]) Pop(tid int) (item T, ok bool) {
	start := int(o.minHint.Load())
	if start < 0 {
		start = 0
	}
	for p := start; p < len(o.buckets); p++ {
		if it, ok := o.buckets[p].Pop(tid); ok {
			// Raise the hint past the empty prefix we scanned.
			// A racing lower-priority push re-lowers it after its
			// bucket insert, so items are never lost — at worst a
			// pop rescans.
			if p > start {
				o.minHint.CompareAndSwap(int64(start), int64(p))
			}
			return it, true
		}
	}
	// Retry the prefix once in case the hint was stale-high.
	for p := 0; p < start && p < len(o.buckets); p++ {
		if it, ok := o.buckets[p].Pop(tid); ok {
			o.minHint.Store(int64(p))
			return it, true
		}
	}
	var zero T
	return zero, false
}
