package core

import (
	"galois/internal/marks"
	"galois/internal/stats"
)

// detTask is the scheduler-side record for one task in the current
// generation. Its rec is the task's identity in the marks protocol; the id
// in rec is the task's position in the generation's deterministic order
// (§3.2), so task id lives at arena.tasks[id-1]. children holds what the
// task's committing execution pushed, in push order, until endGeneration
// reads it; its capacity survives arena recycling, which is what makes a
// reused engine's steady state allocation-free.
type detTask[T any] struct {
	rec      marks.Rec
	item     T
	commitFn func(*Ctx[T])
	children []T
	// failed records this round's outcome: the task was not in the
	// selected independent set and is retried next round.
	failed bool
}

// runDeterministic is the DIG scheduler of Figure 2, phase-structured over
// the engine's retained state. Tasks execute in generations: the initial
// tasks form generation zero; the children of its tasks, concatenated in
// parent id order, form the next generation (todo/next in the pseudocode).
// The whole generation loop — formation, rounds, gather — runs inside one
// worker region (roundExecutor.workerLoop), so generation boundaries cost a
// barrier instead of a pool fork/join and the coordination steps run as
// barrier callbacks. All storage — arenas, contexts, children buffers, the
// executor itself — comes from the engine and is returned to it, so
// repeated runs on one engine allocate (near) nothing.
func runDeterministic[T any](e *Engine, st *engState[T], items []T, body func(*Ctx[T], T), opt Options, col *stats.Collector) {
	nthreads := opt.Threads
	// Profiled runs execute single-threaded: the cachesim tracer orders
	// accesses by arrival, and only a serial run makes that order a pure
	// function of the schedule — thread-invariant and machine-invariant,
	// which is what the §5.4 locality model claims to measure. Committed
	// output is unchanged by the portability property.
	if opt.Profile != nil {
		nthreads = 1
	}
	met := e.metricsFor(opt.Metrics)

	st.dirty = true
	st.ensure(nthreads)
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.prepare(nthreads, true, col, opt)
	}

	r := st.exec
	if r == nil {
		r = newRoundExecutor(st)
		st.exec = r
	}
	r.opt = opt
	r.body = body
	r.ctxs = st.ctxs
	r.col = col
	r.met = met
	r.sink = opt.Sink
	r.nthreads = nthreads
	r.cc = &st.commit
	st.commit.ensureLanes(nthreads)
	r.bar = e.barrier(nthreads)
	r.clock = e.clock
	r.barCrossings, r.barMark = 0, 0
	r.genIdx = 0
	r.runDone = false
	r.formSrc, r.formN = items, len(items)
	r.beginGeneration()
	r.arena = st.free.take(len(items))
	_, parks0, wait0 := r.bar.Stats()
	e.pool.Run(nthreads, r.workerFn)
	if met != nil {
		_, parks, wait := r.bar.Stats()
		met.barrierParks.Add(0, parks-parks0)
		met.barrierWaitNS.Add(0, uint64(wait-wait0))
	}
	st.free.put(r.arena)
	failure := r.failure.Load()
	r.release()

	// inspectTask/execTask swap task-owned children scratch through the
	// contexts, so each ctx still aliases the last task buffer it used.
	// Those buffers live in the arena and go to *other* workers on the next
	// run, and the nondeterministic scheduler treats a leftover ctx.children
	// as private scratch; a surviving alias lets two workers grow one
	// backing array. Sever the aliases; the capacity stays with the tasks.
	// The last commit closure and item go too: the closure captures the
	// operator's state (the graph, the mesh) whatever the item type, and a
	// pointer item is such state itself.
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.children, ctx.tasks = nil, nil
		ctx.forgetTask()
	}
	if failure != nil {
		// Every worker has left the region and the engine's state is back in
		// its pools; the run's marks are stale to every later epoch. Tasks
		// that never reached execute still hold their closures, which a
		// later Scrub would not look for under a pointer-free item type.
		st.scrubItems()
		panic(*failure)
	}
}

// inspectTask runs one task up to (through) its failsafe point in inspect
// mode, performing writeMarksMax over its neighborhood. With the
// continuation optimization the registered commit closure and any phase-1
// children are retained for resumption; without it they are discarded and
// the commit phase re-executes the body.
func (r *roundExecutor[T]) inspectTask(ctx *Ctx[T], t *detTask[T], tid, slot int) {
	// Enter this round's epoch before writing any marks: stealers only touch
	// the rec after seeing one, and last round's Prevented flag goes stale.
	t.rec.Enter(r.epoch)
	ctx.reset(tid, modeInspect, &t.rec, t.item, slot)
	ctx.children = t.children[:0]
	if ctx.pro == nil {
		ctx.runBody(r.body, t.item)
	} else {
		ctx.pro.Begin(tid)
		ctx.runBody(r.body, t.item)
		ctx.pro.End(tid, int(t.rec.ID()))
	}
	if ctx.failed && r.met != nil {
		r.met.failDepth.Observe(tid, int64(ctx.failDepth))
	}
	if r.opt.Continuation {
		t.commitFn = ctx.commitFn
		t.children = ctx.children
	} else {
		t.commitFn = nil
		t.children = ctx.children[:0]
	}
	ctx.tally.Inspects++
}

// execTask decides whether t is in the round's independent set and, if so,
// commits it. Marks are left as they are: the next round's epoch retires
// them. The outcome is counted once, by finishRound's record, not here.
func (r *roundExecutor[T]) execTask(ctx *Ctx[T], t *detTask[T], tid, slot int) {
	if r.opt.Continuation {
		// §3.3: the prevented flag subsumes mark re-validation — it
		// is set iff some location of t ended up owned by a higher id.
		if t.rec.Prevented() {
			t.failed = true
			return
		}
		t.failed = false
		if t.commitFn != nil {
			// The ctx has inspected other tasks since this one: rebind it.
			ctx.reset(tid, modeInspect, &t.rec, t.item, slot)
			ctx.children = t.children // the closure's pushes follow the inspect's
			ctx.inCommit = true
			t.commitFn(ctx)
			ctx.inCommit = false
			t.children = ctx.children
			if ctx.pro != nil { // it lost no location: its span is what it owns
				ctx.pro.Replay(tid, int(t.rec.ID()))
			}
		}
	} else {
		// Baseline (§3.2): re-execute from the beginning; Acquire
		// validates that each mark still holds this task's id and
		// unwinds on the first mismatch. Pushes go to the ctx-owned
		// scratch buffer (see Ctx.scratch), reclaimed below.
		ctx.reset(tid, modeValidate, &t.rec, t.item, slot)
		ctx.children = ctx.scratch[:0]
		conflicted := ctx.runBody(r.body, t.item)
		if !conflicted && ctx.commitFn != nil {
			ctx.inCommit = true
			ctx.commitFn(ctx)
			ctx.inCommit = false
		}
		ctx.scratch = ctx.children
		if conflicted {
			t.failed = true
			return
		}
		t.failed = false
		t.children = append(t.children[:0], ctx.children...)
	}
	ctx.tally.Pushes += uint64(len(t.children))
}
