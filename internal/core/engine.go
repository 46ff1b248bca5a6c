package core

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"galois/internal/marks"
	"galois/internal/obs"
	"galois/internal/para"
	"galois/internal/stats"
	"galois/internal/worklist"
)

// Engine owns the run state both schedulers reuse across loops: the
// persistent worker pool, barriers, the statistics collector, registered
// metrics instruments, and — per item type — generation arenas, contexts and
// gather and formation buffers. A fresh run allocates this state on demand; every
// later run of similar shape finds it warm, so the steady state of a
// repeatedly driven engine allocates (near) zero.
//
// Reuse never reaches committed output: the deterministic schedule is a pure
// function of the task set and ids (§3.2), and recycled storage is fully
// reinitialized before tasks see it, so an engine-reused run is
// fingerprint-identical to a fresh one. An Engine runs one loop at a time
// (concurrent RunOn calls panic). The zero value is not usable; call
// NewEngine.
type Engine struct {
	threads int
	pool    *para.Pool
	bars    map[int]*para.Barrier
	col     *stats.Collector
	// states holds one *engState[T] per item type T, keyed by the typed
	// nil any((*T)(nil)) — a comparable, allocation-free type token.
	states map[any]scrubber
	// met is the instrument bundle of metReg, the registry of the last
	// metered run, so runs on one registry do not re-register every time.
	// One entry, dropped by Scrub: a parked engine pins no registry.
	metReg *obs.Registry
	met    *coreMetrics
	// clock hands out mark epochs. Always the process-wide marks.Epochs; a
	// field only so tests can exhaust a private one.
	clock   *marks.Clock
	running atomic.Bool
	closed  bool
}

// NewEngine returns an engine whose runs default to the given thread count
// (<= 0 means para.DefaultThreads). Workers and per-type state are created
// lazily by the first run that needs them.
func NewEngine(threads int) *Engine {
	if threads <= 0 {
		threads = para.DefaultThreads()
	}
	return &Engine{
		threads: threads,
		pool:    para.NewPool(),
		bars:    make(map[int]*para.Barrier),
		states:  make(map[any]scrubber),
		clock:   &marks.Epochs,
	}
}

// Threads returns the engine's default thread count.
func (e *Engine) Threads() int { return e.threads }

// Close retires the engine's worker goroutines and marks it unusable.
// Idempotent; running on a closed engine panics.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.pool.Close()
}

// Scrub zeroes every slot of the engine's retained scratch that can still
// point into the data of the runs since the last Scrub — task items, commit
// closures, children, gather lanes, the produced buffer, each context's buffers —
// and keeps all capacity, so the next run finds the engine as warm as before
// and allocates nothing more. Until then one stale item in a slot the next
// run does not reach keeps everything reachable from it alive for as long as
// the engine is. For item types that hold no pointer it costs a few stores
// per worker. It is for whoever parks an engine (a pool's Put); RunOn never
// calls it. Scrubbing while a run is in flight panics.
func (e *Engine) Scrub() {
	if !e.running.CompareAndSwap(false, true) {
		panic("galois: Scrub on an Engine that is running a loop")
	}
	defer e.running.Store(false)
	for _, st := range e.states { //detlint:ordered zeroing scratch; order has no observable effect
		st.scrub()
	}
	e.metReg, e.met = nil, nil
}

// scrubber is what Scrub needs of an engState, whatever its item type.
type scrubber interface{ scrub() }

// barrier returns the engine's reusable barrier for the given party count,
// its oversubscription verdict re-sampled for the run checking it out.
func (e *Engine) barrier(parties int) *para.Barrier {
	b := e.bars[parties]
	if b == nil {
		b = para.NewBarrier(parties)
		e.bars[parties] = b
	} else {
		b.Resample()
	}
	return b
}

// metricsFor returns the scheduler instrument bundle for reg (nil for nil).
func (e *Engine) metricsFor(reg *obs.Registry) *coreMetrics {
	if reg != e.metReg {
		e.metReg, e.met = reg, newCoreMetrics(reg)
	}
	return e.met
}

// collector returns the engine's statistics collector, reset for a run of
// the given thread count.
func (e *Engine) collector(threads int) *stats.Collector {
	if e.col == nil {
		e.col = stats.NewCollector(threads)
	} else {
		e.col.Reset(threads)
	}
	return e.col
}

// engState is the per-item-type slice of an engine's retained state. Methods
// cannot introduce type parameters, so the engine stores these behind `any`
// and the generic free function stateFor recovers the typed view.
type engState[T any] struct {
	// dirty: a run has used this state since the last scrub. ptrItems: T
	// can hold a pointer, so the retained copies of items can pin what a
	// finished run worked on.
	dirty    bool
	ptrItems bool
	// ctxs are the per-worker execution contexts; their scratch capacity
	// persists across runs.
	ctxs []*Ctx[T]
	// free recycles generation arenas by size class (DIG scheduler).
	free genFreeList[T]
	// commit is the end-of-round collector and its retained gather buffers.
	commit commitCollector[T]
	// produced is the next generation's items: the children of the
	// exhausted one, concatenated by endGeneration and read by formation.
	produced []T
	// exec is the retained DIG executor: its barrier callbacks and worker
	// closure are built once, so the round hot loop constructs nothing.
	exec *roundExecutor[T]

	// Retained non-deterministic worklists, with the thread counts they
	// were built for (worklists size per-thread queues at construction).
	lifo        *worklist.ChunkedLIFO[T]
	lifoThreads int
	fifo        *worklist.ChunkedFIFO[T]
	fifoThreads int
}

// ensure grows the per-worker state to at least n workers.
func (st *engState[T]) ensure(n int) {
	for len(st.ctxs) < n {
		st.ctxs = append(st.ctxs, &Ctx[T]{})
	}
}

// stateFor returns the engine's retained state for item type T, creating it
// on first use.
func stateFor[T any](e *Engine) *engState[T] {
	key := any((*T)(nil))
	if s, ok := e.states[key]; ok {
		return s.(*engState[T])
	}
	s := &engState[T]{ptrItems: hasPointers(reflect.TypeFor[T]())}
	e.states[key] = s
	return s
}

// hasPointers reports whether a value of type t can hold a pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// scrub is Engine.Scrub for one item type. The contexts' closures and
// acquired lists point into user data whatever T is; everything else holds
// copies of items and is left alone when T has no pointers.
func (st *engState[T]) scrub() {
	if !st.dirty {
		return
	}
	st.dirty = false
	for _, ctx := range st.ctxs {
		ctx.forgetTask()
		clear(ctx.acquired[:cap(ctx.acquired)])
	}
	if st.ptrItems {
		st.scrubItems()
	}
}

// scrubItems zeroes every retained copy of an item, and the commit closures
// stored beside them: arenas up to their dirty mark, the collector's lanes,
// the produced buffer and the contexts' children buffers.
// The speculative worklists need nothing — a pop zeroes its slot, so the
// drained chunks they keep for reuse hold no item.
func (st *engState[T]) scrubItems() {
	for _, a := range st.free.byClass {
		if a != nil {
			a.scrub()
		}
	}
	st.commit.scrub()
	clear(st.produced[:cap(st.produced)])
	for _, ctx := range st.ctxs {
		clear(ctx.children[:cap(ctx.children)])
		clear(ctx.scratch[:cap(ctx.scratch)])
	}
}

// RunOn executes the unordered-algorithm loop of Figure 1a over the initial
// task pool `items` on the given engine, with the scheduler selected in opt,
// and returns the run's statistics. It blocks until every task (including
// dynamically created ones) has committed. The engine's retained state is
// reused; the run's committed output and event sequence are identical to a
// fresh ForEach with the same options.
func RunOn[T any](e *Engine, items []T, body func(*Ctx[T], T), opt Options) stats.Stats {
	if e.closed {
		panic("galois: run on a closed Engine")
	}
	if !e.running.CompareAndSwap(false, true) {
		panic("galois: concurrent RunOn calls on one Engine — an Engine runs one loop at a time; give each concurrent job its own Engine (e.g. check one out of a pool)")
	}
	defer e.running.Store(false)

	if opt.Threads <= 0 {
		opt.Threads = e.threads
	}
	// Per-thread sinks and registries are sized at construction; growing
	// them lock-free mid-run is impossible, so undersizing is a programming
	// error caught before any worker starts.
	if tr, ok := opt.Sink.(*obs.Trace); ok && tr != nil && tr.Threads() < opt.Threads {
		panic(fmt.Sprintf("galois: trace sized for %d threads attached to a %d-thread run",
			tr.Threads(), opt.Threads))
	}
	if opt.Metrics != nil && opt.Metrics.Threads() < opt.Threads {
		panic(fmt.Sprintf("galois: metrics registry sized for %d threads attached to a %d-thread run",
			opt.Metrics.Threads(), opt.Threads))
	}
	// Workers beyond the runtime's parallelism budget cannot execute in
	// parallel — they only add barrier traffic and scheduler churn under
	// oversubscription — and by the portability property the worker count
	// never reaches committed output or the canonical event sequence (the
	// DIG schedule is a pure function of task ids; the non-deterministic
	// scheduler makes no output claim at all). So requested threads above
	// GOMAXPROCS are capped, "parameterless" style: the knob adapts to the
	// machine instead of asking the user to. The floor of 2 keeps
	// cross-worker interleavings real even on single-processor runtimes,
	// where the differential and race suites still have to exercise the
	// parallel pipelines.
	if w := maxUsefulWorkers(); opt.Threads > w {
		opt.Threads = w
	}
	col := e.collector(opt.Threads)
	sched := int64(0)
	if opt.Sched == Deterministic {
		sched = 1
	}
	emit(opt.Sink, 0, obs.Event{Kind: obs.KindRunStart,
		Args: [4]int64{sched, int64(opt.Threads), int64(len(items))}})
	col.Start()
	// An empty loop runs no scheduler at all: the event sequence is exactly
	// run-start/run-end with zero rounds and no worker events, under both
	// schedulers.
	if len(items) > 0 {
		st := stateFor[T](e)
		switch opt.Sched {
		case Deterministic:
			runDeterministic(e, st, items, body, opt, col)
		default:
			runNonDeterministic(e, st, items, body, opt, col)
		}
	}
	col.Stop()
	snap := col.Snapshot()
	emit(opt.Sink, 0, obs.Event{Kind: obs.KindRunEnd,
		Args: [4]int64{int64(snap.Commits), int64(snap.Aborts), int64(snap.Rounds)}})
	if opt.Metrics != nil {
		obs.PublishStats(opt.Metrics, snap)
	}
	return snap
}

// maxUsefulWorkers is the largest worker count a run benefits from:
// GOMAXPROCS, floored at 2 so parallel code paths keep running with real
// concurrency everywhere (see the cap in RunOn).
func maxUsefulWorkers() int {
	w := para.DefaultThreads()
	if w < 2 {
		w = 2
	}
	return w
}

// ForEach executes the loop with transient state: on the engine supplied in
// opt if any, otherwise on a fresh single-run engine. It is the one-shot
// form of RunOn; repeated callers should hold an Engine and pass it via
// Options.Engine (galois.WithEngine) to amortize run state.
func ForEach[T any](items []T, body func(*Ctx[T], T), opt Options) stats.Stats {
	if opt.Engine != nil {
		return RunOn(opt.Engine, items, body, opt)
	}
	e := NewEngine(opt.Threads)
	defer e.Close()
	return RunOn(e, items, body, opt)
}
