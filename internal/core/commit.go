package core

// gatherLane is one worker's share of a round's gather, written only by
// its owning worker during the execute phase: the failed tasks of the
// worker's static window range, in range order. The pad keeps neighboring
// lanes' slice headers off each other's cache lines — the header is
// rewritten every append.
type gatherLane[T any] struct {
	failed []*detTask[T]
	_      [128 - 24]byte // one 24-byte slice header, padded to 128
}

// commitCollector owns the end-of-round gather of the DIG scheduler: failed
// tasks are compacted in front of the untried remainder (failed tasks keep
// their priority). Two pipelines produce the identical result:
//
//   - gather: the serial walk (every round of a one-thread run, and the
//     batched sub-parallel rounds of any run);
//   - per-worker lanes: during the execute phase each worker appends its
//     static range's failed tasks to its own lane, so the gather costs no
//     extra phase and no extra barrier. Concatenating the lanes in tid
//     order reproduces the serial compaction order exactly (static ranges
//     are ascending in tid, range order is window order).
//
// Children are not gathered: a committed task keeps them in its arena slot,
// and endGeneration reads them there in id order. Every lane keeps its
// capacity across rounds and runs, so a reused engine gathers without
// allocating.
type commitCollector[T any] struct {
	lanes []gatherLane[T]
}

// ensureLanes grows the lane set to at least n workers. Serial (pre-fork).
func (cc *commitCollector[T]) ensureLanes(n int) {
	if len(cc.lanes) < n {
		lanes := make([]gatherLane[T], n)
		copy(lanes, cc.lanes)
		cc.lanes = lanes
	}
}

// scrub zeroes the lanes over their whole capacity (see Engine.Scrub).
func (cc *commitCollector[T]) scrub() {
	for i := range cc.lanes {
		lane := &cc.lanes[i]
		clear(lane.failed[:cap(lane.failed)])
	}
}

// mergeFailed closes a parallel round's gather (a barrier callback, so all
// execute-phase lane writes are visible and no worker runs): concatenate
// the per-worker failed lanes, in tid order, into the failed-first prefix
// next[w-nf:w] — the same contents the serial backward compaction produces
// — and return nf. O(nf), not O(window).
func (cc *commitCollector[T]) mergeFailed(r *roundExecutor[T]) int {
	nf := 0
	for i := 0; i < r.nthreads; i++ {
		nf += len(cc.lanes[i].failed)
	}
	if nf == r.w {
		// The max-id task in every round owns all of its marks by
		// construction (§3.2).
		panic("galois: deterministic round committed no tasks")
	}
	j := r.w - nf
	for i := 0; i < r.nthreads; i++ {
		lane := &cc.lanes[i]
		j += copy(r.next[j:r.w], lane.failed)
		lane.failed = lane.failed[:0]
	}
	return nf
}

// gather is the serial pipeline (inside a barrier callback: every round at
// one thread, one batched sub-parallel round otherwise): compact failed
// tasks and finish the round.
//
// The failed compaction is in place: cur and rest are adjacent views of
// r.next, so moving the nf failed task pointers into next[w-nf:w] makes
// failed++rest contiguous at next[w-nf:] with no allocation. The copy
// scans backward, writing from slot w-1 down: at read index i the write
// index is w-1-(failed seen so far) >= i, so a write never lands on a slot
// the scan has yet to read (a forward copy would).
func (cc *commitCollector[T]) gather(r *roundExecutor[T]) {
	committed := 0
	nf := 0
	for _, t := range r.cur {
		if t.failed {
			nf++
			continue
		}
		committed++
		// See execRange: same closure-drop, same buffer retention.
		t.commitFn = nil
	}
	if committed == 0 {
		// The max-id task in every round owns all of its marks by
		// construction (§3.2).
		panic("galois: deterministic round committed no tasks")
	}
	if nf > 0 {
		// Failed tasks keep their priority: they precede untried tasks
		// in the next round.
		j := r.w - 1
		for i := r.w - 1; i >= 0; i-- {
			t := r.cur[i]
			if t.failed {
				r.next[j] = t
				j--
			}
		}
	}
	r.finishRound(committed, nf)
}
