package core

import (
	"sync/atomic"

	"galois/internal/marks"
	"galois/internal/obs"
	"galois/internal/para"
	"galois/internal/stats"
)

// serialSpan scales the serial-round threshold: a round of w <= serialSpan
// × nthreads tasks runs entirely inside one barrier callback (and
// consecutive such rounds batch into the SAME callback, costing zero extra
// crossings). Above it the two parallel phases pay for their barriers. A
// policy constant, not a machine parameter: it selects between pipelines
// that produce byte-identical output.
const serialSpan = 2

// roundExecutor runs the DIG generation/round loop of Figure 2 inside one
// persistent worker region; DESIGN.md §10 describes the pipeline. It is
// retained by the engine per item type and reset per run, so driving it
// allocates nothing in the steady state.
//
// A parallel round costs exactly two barrier crossings — the semantic floor
// of the DIG protocol. The inspect→execute rendezvous is required because a
// task's round outcome (marks.Rec.Prevented) is decided by the LAST
// inspect that touches any of its locations, so no execute may start before
// every inspect finishes; the execute→next-inspect rendezvous is required
// because committed tasks mutate shared state the next round's inspects
// read.
//
// All non-atomic fields are written only in serial sections: before the
// workers fork or inside a WaitDo callback. The callbacks are pure
// functions of that shared state, so which worker happens to run them
// cannot reach committed output; their events are emitted under tid 0,
// whose buffer no other thread touches while the callback holds the
// barrier.
type roundExecutor[T any] struct {
	st   *engState[T]
	opt  Options
	body func(*Ctx[T], T)
	ctxs []*Ctx[T]
	col  *stats.Collector
	met  *coreMetrics
	sink obs.Sink
	bar  *para.Barrier

	nthreads int
	genIdx   int32
	round    int32
	done     bool // current generation exhausted
	runDone  bool // no next generation: workers exit

	// epoch is the current round's mark epoch, taken from clock in
	// setupRound: every mark of an earlier round or run is stale to it.
	epoch marks.Epoch
	clock *marks.Clock

	// failure holds the first value an operator, commit closure or budget
	// check panicked with inside the worker region; runDeterministic
	// re-raises it once every worker has left (see contain).
	failure atomic.Pointer[any]

	// arena stores the live generation; formSrc and formN describe the
	// generation about to be formed (the run's items, or the engine's
	// produced buffer); buckets is its locality-interleave bucket count
	// (<= 1: identity).
	arena   *genArena[T]
	formSrc []T
	formN   int
	buckets int

	// next is the generation's pending tasks in deterministic order; cur is
	// the current round's window prefix, of w tasks.
	next []*detTask[T]
	w    int
	cur  []*detTask[T]

	// serialRound: this round runs entirely inside the coordination
	// callback (w <= serialSpan*nthreads). A pure function of (w, nthreads),
	// never of the machine, so the pipeline choice is reproducible.
	serialRound bool

	win windowPolicy
	cc  *commitCollector[T]

	// Phase timing (observational). ts0/ts1/ts2 mark round start, inspect
	// end, execute end; each is written in a serial section.
	ts0, ts1, ts2 int64

	// barCrossings counts barrier crossings (each callback entry is one
	// crossing); barMark snapshots it at the previous round's close, so
	// finishRound attributes crossings to rounds. Serial-section writes.
	barCrossings uint64
	barMark      uint64

	// Pre-built callbacks for the barrier fusion and the pool, so the hot
	// loop never constructs a closure (a method value passed to WaitDo
	// would allocate on every round).
	workerFn   func(int)
	startGenFn func()
	stampFn    func()
	coordFn    func()
}

// newRoundExecutor returns an executor bound to its engine state, with the
// reusable callbacks built once.
func newRoundExecutor[T any](st *engState[T]) *roundExecutor[T] {
	r := &roundExecutor[T]{st: st}
	r.workerFn = r.workerLoop
	r.startGenFn = r.startGeneration
	r.stampFn = func() {
		r.barCrossings++
		r.ts1 = obs.Nanotime()
	}
	r.coordFn = r.coordinate
	return r
}

// workerLoop is one worker's life for the whole run. The structure mirrors
// Figure 2 with every serial section fused into barrier callbacks:
//
//	form generation (parallel) ─ barrier[startGeneration]
//	per parallel round: inspect own range ─ barrier[stamp] ─
//	                    execute own range ─ barrier[coordinate]
//
// Sub-parallel rounds never appear here: the coordination callbacks drain
// them inline (advance), so workers only ever see parallel rounds or the
// end of the generation. Shared round state (done, w, cur, ...) is written
// ONLY inside barrier callbacks; workers read it strictly between barrier
// crossings, which is what keeps every worker taking the same branches —
// and therefore the same number of barrier crossings — each round.
func (r *roundExecutor[T]) workerLoop(tid int) {
	ctx := r.ctxs[tid]
	bar := r.bar
	for {
		r.formGeneration(tid)
		bar.WaitDo(r.startGenFn)
		for !r.done {
			lo, hi := para.BlockRange(r.w, r.nthreads, tid)
			r.inspectRange(ctx, tid, lo, hi)
			bar.WaitDo(r.stampFn)
			r.execRange(ctx, tid, lo, hi)
			bar.WaitDo(r.coordFn)
		}
		if r.runDone {
			return
		}
	}
}

// contain is deferred by every parallel-phase range and, with serial set,
// by every barrier callback: a panic becomes the run's failure and the
// worker walks on to the barrier. Only a callback stops a failed run —
// every other worker is parked, so done/runDone may be written and all
// workers, having crossed the same barriers, leave the region together.
func (r *roundExecutor[T]) contain(serial bool) {
	if p := recover(); p != nil {
		first := p // a copy, so only a panic allocates
		r.failure.CompareAndSwap(nil, &first)
	}
	if serial && r.failure.Load() != nil {
		r.done, r.runDone = true, true
	}
}

// formGeneration is one worker's share of forming the next generation from
// formSrc: fill, locality interleave and id assignment fused into one pass
// over a static block partition. Output slot p is a pure function of p —
// its source index comes from interleaveSrc, its id is p+1 (0 means
// "unowned" in the marks protocol) — so the partition cannot perturb the
// deterministic order (§3.2), and id assignment never enters a serial
// section.
func (r *roundExecutor[T]) formGeneration(tid int) {
	n := r.formN
	lo, hi := para.BlockRange(n, r.nthreads, tid)
	backing := r.arena.tasks[:n]
	order := r.arena.order[:n]
	src := r.formSrc
	buckets := r.buckets
	for p := lo; p < hi; p++ {
		i := p
		if buckets > 1 {
			i = interleaveSrc(p, n, buckets)
		}
		t := &backing[p]
		t.item = src[i]
		t.children = t.children[:0]
		t.commitFn = nil
		t.failed = false
		t.rec.Reset(uint64(p) + 1)
		order[p] = t
	}
}

// beginGeneration fixes the forming generation's window policy and
// interleave shape. Serial (pre-fork or inside endGeneration).
func (r *roundExecutor[T]) beginGeneration() {
	r.win = newWindowPolicy(r.formN, r.opt)
	r.buckets = 1
	if r.opt.LocalityInterleave {
		r.buckets = interleaveBuckets(r.formN, r.win.size)
	}
}

// startGeneration opens the freshly formed generation: barrier callback
// after the formation pass. Like coordinate, it drains any leading stretch
// of sub-parallel rounds before releasing the workers.
func (r *roundExecutor[T]) startGeneration() {
	defer r.contain(true)
	r.barCrossings++
	for _, ctx := range r.ctxs[:r.nthreads] {
		ctx.tasks = r.arena.tasks // where Acquire finds the tasks it displaces
	}
	r.formSrc = nil
	emit(r.sink, 0, obs.Event{Kind: obs.KindGenStart, Gen: r.genIdx,
		Args: [4]int64{int64(r.formN)}})
	r.next = r.arena.order[:r.formN]
	r.round = -1
	r.done = false
	r.advance()
}

// setupRound forms the next round from the pending tasks, or marks the
// generation done. Serial (a barrier callback).
func (r *roundExecutor[T]) setupRound() {
	if len(r.next) == 0 {
		r.done = true
		return
	}
	w := r.win.next(len(r.next))
	r.w = w
	r.cur = r.next[:w:w]
	r.round++
	emit(r.sink, 0, obs.Event{Kind: obs.KindRoundStart, Gen: r.genIdx, Round: r.round,
		Args: [4]int64{int64(w), int64(len(r.next) - w)}})
	r.serialRound = r.nthreads == 1 || w <= serialSpan*r.nthreads
	r.epoch = r.clock.Next()
	r.ts0 = obs.Nanotime()
}

// advance moves the generation forward from inside a barrier callback:
// set up the next round and, while it is sub-parallel, run it right here —
// both phases as plain loops on the callback's goroutine (every other
// worker is parked in the barrier, so ctx 0 has exactly one user), the
// gather as the serial walk. A contended stretch of shrunken windows
// therefore crosses ONE barrier total instead of one (or two) per round —
// this is the round-batching the commit-ratio window enables: the window
// policy shrinks w under conflict, w <= serialSpan*nthreads flags the
// round serial, and the batch ends (deterministically) the moment the
// policy grows the window back above the threshold. When the pending list
// empties the generation is closed in the same callback.
func (r *roundExecutor[T]) advance() {
	r.setupRound()
	for !r.done && r.serialRound {
		ctx := r.ctxs[0]
		for j, t := range r.cur {
			r.inspectTask(ctx, t, 0, j)
		}
		r.ts1 = obs.Nanotime()
		for j, t := range r.cur {
			r.execTask(ctx, t, 0, j)
		}
		ctx.flush(0)
		r.ts2 = obs.Nanotime()
		r.cc.gather(r)
		r.setupRound()
	}
	if r.done {
		r.endGeneration()
	}
}

// inspectRange runs Phase 1 (Figure 2 line 14) over the worker's static
// share of the window: each task runs through its failsafe point in
// inspect mode, write-max-marking its neighborhood.
func (r *roundExecutor[T]) inspectRange(ctx *Ctx[T], tid, lo, hi int) {
	defer r.contain(false)
	for j, t := range r.cur[lo:hi] {
		r.inspectTask(ctx, t, tid, j)
	}
}

// execRange runs Phase 2 (Figure 2 line 19) over the same static range the
// worker inspected — the task records are still cache-warm from Phase 1 —
// with the gather fused in: failed tasks go to the worker's own lane.
func (r *roundExecutor[T]) execRange(ctx *Ctx[T], tid, lo, hi int) {
	if r.failure.Load() != nil {
		return // an inspect panicked: the marks are incomplete, nothing may commit
	}
	defer r.contain(false)
	defer ctx.flush(tid)
	lane := &r.cc.lanes[tid]
	failed := lane.failed[:0]
	for j, t := range r.cur[lo:hi] {
		r.execTask(ctx, t, tid, j)
		if t.failed {
			failed = append(failed, t)
			continue
		}
		// Drop the commit closure (it can pin arbitrary user state); the
		// children stay in the task until endGeneration reads them.
		t.commitFn = nil
	}
	lane.failed = failed
}

// coordinate is the end-of-round serial section of a parallel round (a
// barrier callback): merge the per-worker failed lanes back into the
// pending list, record the round, and advance — possibly through a whole
// batch of sub-parallel rounds — before the workers are released.
func (r *roundExecutor[T]) coordinate() {
	defer r.contain(true)
	if r.failure.Load() != nil {
		return
	}
	r.barCrossings++
	r.ts2 = obs.Nanotime()
	nf := r.cc.mergeFailed(r)
	r.finishRound(r.w-nf, nf)
	r.advance()
}

// finishRound closes the completed round: it fills the round's one record,
// hands it to the collector, the trace and the registry, and trims the
// pending list. Shared by every round pipeline so their event sequences
// cannot diverge.
func (r *roundExecutor[T]) finishRound(committed, nf int) {
	ts3 := obs.Nanotime()
	rec := stats.Round{
		Gen: r.genIdx, Round: r.round,
		Window: len(r.cur), Committed: committed, Failed: nf,
		InspectNS: r.ts1 - r.ts0, ExecuteNS: r.ts2 - r.ts1, CoordinateNS: ts3 - r.ts2,
		Barriers:     r.barCrossings - r.barMark,
		WindowBefore: r.win.size,
	}
	r.barMark = r.barCrossings
	rec.WindowAfter = r.win.update(rec.Window, committed)
	r.col.Round(rec)
	if r.sink != nil {
		obs.EmitRound(r.sink, rec, r.opt.Continuation)
	}
	if r.met != nil {
		r.met.round(rec)
	}
	r.next = r.next[r.w-nf:]
}

// endGeneration closes the exhausted generation: concatenate its tasks'
// children into the engine's produced buffer, recycle the arena, and stage
// the next generation's formation — or mark the run done. Runs inside a
// coordination callback (all other workers parked).
//
// The concatenation is §3.2's sort without a comparison. Every task of the
// generation has committed, and each holds exactly what its committing
// execution pushed, in push order (under continuation the inspect's pushes,
// then the commit closure's; without it the validate re-execution's). Slot
// p holds id p+1, so walking the slots in order yields the children in
// (id(parent), k) order. The walk must finish before the arena is put back:
// a same-class take returns the same arena, whose slots formation rewrites.
func (r *roundExecutor[T]) endGeneration() {
	st := r.st
	produced := st.produced[:0]
	for i := range r.arena.tasks[:r.formN] {
		produced = append(produced, r.arena.tasks[i].children...)
	}
	st.produced = produced
	emit(r.sink, 0, obs.Event{Kind: obs.KindGenEnd, Gen: r.genIdx,
		Args: [4]int64{int64(len(produced))}})
	if len(produced) == 0 {
		r.runDone = true
		return
	}
	// The next generation's order is fixed here; gen-sort marks it.
	emit(r.sink, 0, obs.Event{Kind: obs.KindGenSort, Gen: r.genIdx,
		Args: [4]int64{int64(len(produced))}})
	st.free.put(r.arena)
	r.arena = st.free.take(len(produced))
	r.genIdx++
	r.formSrc, r.formN = produced, len(produced)
	r.beginGeneration()
}

// release drops the run-scoped references so a retained executor does not
// pin the finished run's items, body, sink or arena.
func (r *roundExecutor[T]) release() {
	r.opt = Options{}
	r.body = nil
	r.ctxs = nil
	r.col = nil
	r.met = nil
	r.sink = nil
	r.bar = nil
	r.clock = nil
	r.failure.Store(nil)
	r.arena = nil
	r.formSrc = nil
	r.next, r.cur = nil, nil
}
