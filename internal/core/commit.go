package core

// gatherLane is one worker's share of a round's gather, written only by
// its owning worker during the execute phase: the failed tasks of the
// worker's static window range (in range order) and the children its
// committed tasks produced. The pad keeps neighboring lanes' slice headers
// off each other's cache lines — the headers are rewritten every append.
type gatherLane[T any] struct {
	failed   []*detTask[T]
	children []child[T]
	_        [128 - 2*24]byte // two 24-byte slice headers, padded to 128
}

// commitCollector owns the end-of-round gather of the DIG scheduler: the
// children of committed tasks are collected and failed tasks are compacted
// in front of the untried remainder (failed tasks keep their priority).
// Two pipelines produce the identical result:
//
//   - gather: the serial walk (every round of a one-thread run, and the
//     batched sub-parallel rounds of any run);
//   - per-worker lanes: during the execute phase each worker appends its
//     static range's failed tasks and children to its own lane, so the
//     gather costs no extra phase and no extra barrier. Concatenating the
//     failed lanes in tid order reproduces the serial compaction order
//     exactly (static ranges are ascending in tid, range order is window
//     order). Children lanes accumulate across the generation's rounds and
//     are merged once at generation end — their order is irrelevant,
//     because every generation is sorted by globally-unique child keys
//     ((parent, k), or (pre, parent, k) under preassigned ids) before
//     forming the next, so any deterministic concatenation yields the same
//     next generation.
//
// All buffers are engine-retained scratch: the produced buffer and every
// lane keep their capacity across rounds and runs, so a reused engine
// gathers without allocating.
type commitCollector[T any] struct {
	produced []child[T]
	lanes    []gatherLane[T]
}

// ensureLanes grows the lane set to at least n workers. Serial (pre-fork).
func (cc *commitCollector[T]) ensureLanes(n int) {
	if len(cc.lanes) < n {
		lanes := make([]gatherLane[T], n)
		copy(lanes, cc.lanes)
		cc.lanes = lanes
	}
}

// reset prepares the collector for a new generation, keeping capacity.
func (cc *commitCollector[T]) reset() {
	cc.produced = cc.produced[:0]
	for i := range cc.lanes {
		cc.lanes[i].failed = cc.lanes[i].failed[:0]
		cc.lanes[i].children = cc.lanes[i].children[:0]
	}
}

// scrub zeroes the buffers over their whole capacity (see Engine.Scrub).
func (cc *commitCollector[T]) scrub() {
	clear(cc.produced[:cap(cc.produced)])
	for i := range cc.lanes {
		lane := &cc.lanes[i]
		clear(lane.failed[:cap(lane.failed)])
		clear(lane.children[:cap(lane.children)])
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

// mergeProduced concatenates the per-worker children lanes onto the
// produced buffer (which already holds the children of any serially
// gathered rounds) and returns it. Runs once per generation, inside the
// closing coordination callback; the concatenation order is fixed (tid
// ascending) but immaterial — endGeneration sorts by unique keys next.
func (cc *commitCollector[T]) mergeProduced(nthreads int) []child[T] {
	for i := 0; i < nthreads; i++ {
		lane := &cc.lanes[i]
		if len(lane.children) > 0 {
			cc.produced = append(cc.produced, lane.children...)
			lane.children = lane.children[:0]
		}
	}
	return cc.produced
}

// gather is the serial pipeline (inside a barrier callback: every round at
// one thread, one batched sub-parallel round otherwise): harvest children,
// compact failed tasks, and finish the round.
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
		if len(t.children) > 0 {
			cc.produced = append(cc.produced, t.children...)
		}
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
