package core

import (
	"runtime"
	"testing"
	"weak"

	"galois/internal/cachesim"
	"galois/internal/marks"
	"galois/internal/obs"
)

// scrubNode is a pointer item: a location, and a payload big enough that the
// allocator never packs two of them into one block.
type scrubNode struct {
	marks.Lockable
	depth   int
	payload [64]uint64
}

// scrubWitness holds weak pointers to what a run worked on: its items, the
// children its commits pushed, the state its commit closures captured, the
// metrics registry attached for that run alone with one of its instruments,
// and the locality tracer of a profiled run.
type scrubWitness struct {
	items    []weak.Pointer[scrubNode]
	children []weak.Pointer[scrubNode]
	captured weak.Pointer[[1024]uint64]
	registry weak.Pointer[obs.Registry]
	failHist weak.Pointer[obs.Histogram]
	tracer   weak.Pointer[cachesim.Tracer]
}

func (w *scrubWitness) alive() (items, children int, captured bool) {
	for _, p := range w.items {
		if p.Value() != nil {
			items++
		}
	}
	for _, p := range w.children {
		if p.Value() != nil {
			children++
		}
	}
	return items, children, w.captured.Value() != nil
}

// scrubRun runs n pointer items on opt's engine; every one pushes a child
// from its commit closure, which also touches state the closure captured.
// A profiled run attaches a locality tracer of its own. All of it is garbage
// once scrubRun returns, but for what the engine keeps.
//
//go:noinline
func scrubRun(n int, opt Options, profiled bool) *scrubWitness {
	w := &scrubWitness{
		items:    make([]weak.Pointer[scrubNode], n),
		children: make([]weak.Pointer[scrubNode], n),
	}
	captured := new([1024]uint64)
	w.captured = weak.Make(captured)
	items := make([]*scrubNode, n)
	index := make(map[*scrubNode]int, n)
	for i := range items {
		items[i] = &scrubNode{}
		w.items[i] = weak.Make(items[i])
		index[items[i]] = i
	}
	opt.Metrics = obs.NewRegistry(opt.Threads)
	w.registry = weak.Make(opt.Metrics)
	w.failHist = weak.Make(opt.Metrics.Histogram("acquire.fail_depth", obs.Pow2Bounds(1<<12)))
	if profiled {
		opt.Profile = cachesim.NewTracer(opt.Threads)
		w.tracer = weak.Make(opt.Profile)
	}
	ForEach(items, func(ctx *Ctx[*scrubNode], nd *scrubNode) {
		ctx.Acquire(&nd.Lockable)
		if nd.depth > 0 {
			return
		}
		ctx.OnCommit(func(c *Ctx[*scrubNode]) {
			i := index[nd] // read-only after set-up; each item writes its own slot
			captured[i%len(captured)]++
			ch := &scrubNode{depth: 1}
			w.children[i] = weak.Make(ch)
			c.Push(ch)
		})
	}, opt)
	return w
}

// planRun runs n pointer-free items on opt's engine; every task builds a
// plan that points at a fresh node, which its handler reads back. It returns
// weak pointers to the nodes: garbage once planRun returns, unless a plan
// outlived its run.
//
//go:noinline
func planRun(n int, opt Options) []weak.Pointer[scrubNode] {
	type plan struct{ node *scrubNode }
	nodes := make([]weak.Pointer[scrubNode], n)
	cells := make([]cell, n)
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	visit := func(c *Ctx[int]) { PlanOf[plan](c).node.depth++ }
	ForEach(items, func(ctx *Ctx[int], i int) {
		ctx.Acquire(&cells[i].Lockable)
		nd := &scrubNode{}
		nodes[i] = weak.Make(nd)
		PlanOf[plan](ctx).node = nd
		ctx.OnCommit(visit)
	}, opt)
	return nodes
}

// mallocsOf counts the heap objects one call of f allocates.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestScrubReleasesRunData: an engine that is kept alive must not keep its
// finished runs' data alive once scrubbed. A large run and then a small one
// leave items in arena slots, children buffers, lanes and the produced buffer that
// the small run never reached; after Scrub and two collections every item,
// every child, the closures' captured state, each run's own metrics
// registry and the small run's locality tracer are gone — and before the
// scrub, each scheduler's tail has already dropped the contexts' last items
// and closures, and every plan:
// plans are not items, so a Scrub of pointer-free items would never look at
// them. The engine is still as warm as it was: the next run allocates no
// more than the steady-state ceiling of TestEngineSteadyStateAllocs.
func TestScrubReleasesRunData(t *testing.T) {
	for _, c := range []struct {
		name string
		mod  func(*Options)
	}{
		{"det", func(o *Options) { o.Sched = Deterministic }},
		{"det-nocontinuation", func(o *Options) { o.Sched, o.Continuation = Deterministic, false }},
		{"nondet", func(o *Options) { o.Sched = NonDeterministic }},
		{"nondet-fifo", func(o *Options) { o.Sched, o.FIFO = NonDeterministic, true }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := NewEngine(2)
			defer eng.Close()
			opt := optsFor(Deterministic, 2, c.mod, func(o *Options) { o.Engine = eng })

			big := scrubRun(700, opt, false)
			small := scrubRun(20, opt, true)
			planned := planRun(300, opt)
			// RunOn never scrubs, and an engine nobody parks is never
			// scrubbed: a run's own tail must leave no task in the contexts,
			// or each worker's last item and closure live as long as the
			// engine.
			for tid, ctx := range stateFor[*scrubNode](eng).ctxs {
				if ctx.item != nil || ctx.commitFn != nil {
					t.Errorf("worker %d's context still holds its last task after the run (item %v, closure %v)",
						tid, ctx.item != nil, ctx.commitFn != nil)
				}
			}
			runtime.GC()
			runtime.GC()
			alive := 0
			for _, p := range planned {
				if p.Value() != nil {
					alive++
				}
			}
			if alive > 0 {
				t.Errorf("%d of %d plans of a finished run over pointer-free items still hold their nodes", alive, len(planned))
			}
			eng.Scrub()
			runtime.GC()
			runtime.GC()
			for name, w := range map[string]*scrubWitness{"large run": big, "small run": small} {
				if items, children, captured := w.alive(); items+children > 0 || captured {
					t.Errorf("%s: the scrubbed engine still holds %d of %d items, %d of %d children, captured state %v",
						name, items, len(w.items), children, len(w.children), captured)
				}
				if w.registry.Value() != nil || w.failHist.Value() != nil {
					t.Errorf("%s: the scrubbed engine still holds the run's metrics registry (%v) or its instruments (%v)",
						name, w.registry.Value() != nil, w.failHist.Value() != nil)
				}
				if w.tracer.Value() != nil {
					t.Errorf("%s: the scrubbed engine still holds the run's locality tracer", name)
				}
			}

			// The steady state survives: pointer items again, read-only, on
			// the first run after the scrub. (The speculative scheduler's
			// steady state is the g-n leg of TestEngineSteadyStateAllocs: how
			// many chunks its run needs beyond the spares it kept is up to
			// the schedule, which a ceiling this tight cannot allow for.)
			if opt.Sched != Deterministic {
				return
			}
			items := make([]*scrubNode, 700)
			for i := range items {
				items[i] = &scrubNode{depth: 1}
			}
			got := mallocsOf(func() {
				ForEach(items, func(ctx *Ctx[*scrubNode], nd *scrubNode) { ctx.Acquire(&nd.Lockable) }, opt)
			})
			if got > 8 {
				t.Errorf("first run after Scrub allocated %d objects, want <= 8: the scrub gave capacity away", got)
			}
		})
	}
}

// TestFailedRunLeavesNoClosures: a run that panics leaves the commit
// closures of tasks that were inspected and never executed. The item type
// has no pointers, so a later Scrub does not walk the arenas; the failing
// run must have dropped the closures itself.
func TestFailedRunLeavesNoClosures(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	opt := optsFor(Deterministic, 2, func(o *Options) { o.Engine = eng })

	wp := failingRun(t, opt)
	eng.Scrub()
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("the engine still holds a failed run's commit closures")
	}
}

// failingRun runs 256 tasks whose commit closures capture one state object;
// task 200 panics in the operator. It returns a weak pointer to the state.
//
//go:noinline
func failingRun(t *testing.T, opt Options) (wp weak.Pointer[[512]uint64]) {
	state := new([512]uint64)
	wp = weak.Make(state)
	cells := make([]cell, 256)
	items := make([]int, len(cells))
	for i := range items {
		items[i] = i
	}
	defer func() {
		if recover() == nil {
			t.Error("operator panic did not propagate")
		}
	}()
	ForEach(items, func(ctx *Ctx[int], i int) {
		ctx.Acquire(&cells[i].Lockable)
		if i == 200 {
			panic("operator failure")
		}
		ctx.OnCommit(func(*Ctx[int]) { state[i]++ })
	}, opt)
	return wp
}
