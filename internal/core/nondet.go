package core

import (
	"runtime"
	"sync/atomic"

	"galois/internal/obs"
	"galois/internal/stats"
	"galois/internal/worklist"
)

// obimAdapter binds a priority function to an OBIM worklist.
type obimAdapter[T any] struct {
	obim *worklist.OBIM[T]
	prio func(T) int
}

func (a *obimAdapter[T]) Push(tid int, item T)  { a.obim.PushPrio(tid, item, a.prio(item)) }
func (a *obimAdapter[T]) Pop(tid int) (T, bool) { return a.obim.Pop(tid) }

// pickWorklist selects the run's worklist, reusing the engine-retained one
// when its kind and size fit. A drained worklist is structurally empty, so
// reuse is invisible to the run. Reuse keeps the per-thread queues and their
// chunks: each thread's pushes refill the chunks its pops drained, dealt out
// evenly again before the run, so a warm run allocates chunks only beyond
// the peak occupancy of the runs before it. OBIM worklists are rebuilt per
// run — they embed the run's priority function and bucket count, which may
// change.
func pickWorklist[T any](st *engState[T], opt Options, nthreads int) interface {
	Push(tid int, item T)
	Pop(tid int) (T, bool)
} {
	switch {
	case opt.Priority != nil:
		fn, ok := opt.Priority.(func(T) int)
		if !ok {
			panic("galois: WithPriority function does not match the loop's item type")
		}
		levels := opt.PriorityLevels
		if levels <= 0 {
			levels = 64
		}
		return &obimAdapter[T]{obim: worklist.NewOBIM[T](nthreads, levels), prio: fn}
	case opt.FIFO:
		if st.fifo == nil || st.fifoThreads < nthreads {
			st.fifo = worklist.NewChunkedFIFO[T](nthreads)
			st.fifoThreads = nthreads
		}
		st.fifo.BalanceSpares()
		return st.fifo
	default:
		if st.lifo == nil || st.lifoThreads < nthreads {
			st.lifo = worklist.NewChunkedLIFO[T](nthreads)
			st.lifoThreads = nthreads
		}
		st.lifo.BalanceSpares()
		return st.lifo
	}
}

// runNonDeterministic is the speculative scheduler of Figure 1b: each
// worker repeatedly pops an arbitrary task, acquires its neighborhood marks
// with compare-and-set as the body executes, and either commits (running
// the deferred write phase and enqueueing created tasks) or aborts on
// conflict (releasing its marks and retrying the task later). It runs on
// the engine's persistent worker pool and reuses the engine-retained
// contexts, mark records and worklist.
func runNonDeterministic[T any](e *Engine, st *engState[T], items []T, body func(*Ctx[T], T), opt Options, col *stats.Collector) {
	// One epoch for the whole run: marks left by any earlier run read as
	// unowned. Taken first, so an exhausted clock fails the run clean.
	epoch := e.clock.Next()
	nthreads := opt.Threads
	met := e.metricsFor(opt.Metrics)

	st.dirty = true
	st.ensure(nthreads)
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.prepare(nthreads, false, col, opt)
	}

	wl := pickWorklist(st, opt, nthreads)

	// Seed the worklist round-robin so workers start with local work and
	// the initial distribution is balanced.
	for i, it := range items {
		wl.Push(i%nthreads, it)
	}

	// pending counts the live tasks plus the commits not yet flushed into
	// it. A commit with n children applies n-1 before pushing them (nothing
	// when n = 1); a childless commit adds to its worker's local count,
	// which the worker flushes whenever its pop fails, before it reads
	// pending. Increments are never late, so pending never under-counts,
	// and a worker that flushed and reads zero knows every other count is
	// zero too: termination is exact, and the per-task path writes no
	// shared word but the marks.
	var pending atomic.Int64
	pending.Store(int64(len(items)))
	// failure holds the first value an operator or commit closure panicked
	// with. The panicking worker never decrements pending for its task, so
	// every other worker stops at its next pop instead of waiting for zero;
	// the value is re-raised once all of them have left.
	var failure atomic.Pointer[any]

	e.pool.Run(nthreads, func(tid int) {
		defer func() {
			if p := recover(); p != nil {
				first := p // a copy, so only a panic allocates
				failure.CompareAndSwap(nil, &first)
			}
		}()
		ctx := st.ctxs[tid]
		// The worker's counts stay in its context for the whole run and
		// reach the collector once, when the worker leaves.
		tally := &ctx.tally
		rec := &ctx.own
		// Ids only need to be unique for the non-deterministic marks
		// protocol (§2.1); one per worker provides that.
		rec.Reset(uint64(tid) + 1)
		rec.Enter(epoch)

		backoff := 0
		var done int64 // childless commits not yet flushed into pending
		for failure.Load() == nil {
			item, ok := wl.Pop(tid)
			if !ok {
				if done > 0 {
					pending.Add(-done)
					done = 0
				}
				if pending.Load() == 0 {
					emit(opt.Sink, tid, obs.Event{Kind: obs.KindWorker,
						Args: [4]int64{int64(tally.Commits), int64(tally.Aborts)}})
					ctx.flush(tid)
					return
				}
				runtime.Gosched()
				continue
			}

			ctx.reset(tid, modeDirect, rec, item, 0)
			conflicted := ctx.runBody(body, item)
			if !conflicted {
				// Commit: run the deferred write phase while still
				// holding all neighborhood marks, then publish
				// created tasks.
				if ctx.commitFn != nil {
					ctx.inCommit = true
					ctx.commitFn(ctx)
					ctx.inCommit = false
					if ctx.pro != nil { // §5.4: the commit revisits its held list, which unlike its span has no repeats
						for _, l := range ctx.acquired {
							ctx.pro.Touch(tid, l)
						}
					}
				}
				if n := len(ctx.children); n == 0 {
					done++
				} else {
					if n > 1 {
						pending.Add(int64(n - 1))
					}
					for _, ch := range ctx.children {
						wl.Push(tid, ch)
					}
					tally.Pushes += uint64(n)
				}
			}
			if conflicted && met != nil {
				met.failDepth.Observe(tid, int64(len(ctx.acquired)))
			}
			// Commit or roll back, every mark acquired so far is released
			// (Figure 1b lines 7-8). Cautious tasks performed no shared
			// writes before a conflict, so no state is restored.
			for _, l := range ctx.acquired {
				tally.AtomicOps += uint64(l.Release(rec))
			}
			if conflicted {
				tally.Aborts++
				wl.Push(tid, item) // retry the task later
				// Brief backoff reduces livelock between
				// symmetric conflicting tasks.
				backoff++
				if backoff > 2 {
					runtime.Gosched()
				}
				continue
			}
			backoff = 0
			tally.Commits++
		}
	})
	// As after a deterministic run: the last closure and item pin operator
	// state.
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.forgetTask()
	}
	if p := failure.Load(); p != nil {
		// The marks the failed tasks still hold are stale to the next run's
		// epoch. The worklist is not drained: drop it, so no later run pops
		// this one's items, and zero what else holds them.
		st.lifo, st.fifo = nil, nil
		st.scrubItems()
		panic(*p)
	}
}
