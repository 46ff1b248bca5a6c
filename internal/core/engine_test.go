package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"galois/internal/obs"
)

// TestEmptyRunEventSequence pins the empty-loop contract: under both
// schedulers an empty item set emits exactly run-start and run-end — no
// rounds, no generations and, notably, no worker summaries (the
// non-deterministic path used to fork workers that each emitted one even
// with nothing to do).
func TestEmptyRunEventSequence(t *testing.T) {
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		t.Run(sched.String(), func(t *testing.T) {
			tr := obs.NewTrace(4)
			st := ForEach(nil, func(ctx *Ctx[int], i int) {
				t.Error("body ran for empty input")
			}, optsFor(sched, 4, func(o *Options) { o.Sink = tr }))
			if st.Commits != 0 || st.Aborts != 0 || st.Rounds != 0 {
				t.Fatalf("empty run stats = %+v", st)
			}
			lines := tr.CanonicalLines()
			want := []string{
				fmt.Sprintf("run-start sched=%d items=0", int(sched)),
				"run-end gen=0 round=0 args=0,0,0,0",
			}
			if len(lines) != len(want) {
				t.Fatalf("event lines = %q, want %q", lines, want)
			}
			for i := range want {
				if lines[i] != want[i] {
					t.Fatalf("event %d = %q, want %q", i, lines[i], want[i])
				}
			}
		})
	}
}

// conflictRun executes the heavy-conflict workload of
// TestConflictingTasksBothSchedulers once with the given options and
// returns the cell fingerprint plus the run's stats. Fresh cells each call
// keep runs independent.
func conflictRun(t *testing.T, opt Options) (uint64, uint64) {
	t.Helper()
	const ntasks = 800
	const ncells = 16
	cells := make([]*cell, ncells)
	for i := range cells {
		cells[i] = &cell{}
	}
	items := make([]int, ntasks)
	for i := range items {
		items[i] = i
	}
	st := ForEach(items, func(ctx *Ctx[int], i int) {
		a, b := cells[i%ncells], cells[(i*7+3)%ncells]
		ctx.Acquire(&a.Lockable)
		ctx.Acquire(&b.Lockable)
		ctx.OnCommit(func(*Ctx[int]) {
			a.value = a.value*31 + uint64(i)
			b.value = b.value*17 + uint64(i)
		})
	}, opt)
	return fingerprintCells(cells), st.Commits
}

// TestEngineReuseMatchesFresh is the core-level engine invariant: runs that
// reuse one engine's retained state are fingerprint-identical to fresh
// ForEach runs, for the DIG scheduler with and without the continuation
// optimization, at several thread counts, across repeated reuse.
func TestEngineReuseMatchesFresh(t *testing.T) {
	for _, cont := range []bool{true, false} {
		for _, threads := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("cont=%v/t%d", cont, threads), func(t *testing.T) {
				opt := optsFor(Deterministic, threads, func(o *Options) { o.Continuation = cont })
				wantFP, wantCommits := conflictRun(t, opt)

				eng := NewEngine(threads)
				defer eng.Close()
				opt.Engine = eng
				for run := 0; run < 3; run++ {
					fp, commits := conflictRun(t, opt)
					if fp != wantFP {
						t.Fatalf("reused run %d: fingerprint %#x, fresh %#x", run, fp, wantFP)
					}
					if commits != wantCommits {
						t.Fatalf("reused run %d: commits %d, fresh %d", run, commits, wantCommits)
					}
				}
			})
		}
	}
}

// TestEngineNonDetReuse drives the non-deterministic scheduler repeatedly on
// one engine over both worklist kinds; every reused run must still commit
// each task exactly once, and the retained worklists must actually be
// reused rather than rebuilt.
func TestEngineNonDetReuse(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	for _, fifo := range []bool{false, true} {
		for run := 0; run < 3; run++ {
			cells := make([]*cell, 64)
			for i := range cells {
				cells[i] = &cell{}
			}
			items := make([]int, 500)
			for i := range items {
				items[i] = i % len(cells)
			}
			st := ForEach(items, func(ctx *Ctx[int], i int) {
				c := cells[i]
				ctx.Acquire(&c.Lockable)
				ctx.OnCommit(func(*Ctx[int]) { c.value++ })
			}, optsFor(NonDeterministic, 4, func(o *Options) {
				o.FIFO = fifo
				o.Engine = eng
			}))
			if st.Commits != uint64(len(items)) {
				t.Fatalf("fifo=%v run %d: commits = %d, want %d", fifo, run, st.Commits, len(items))
			}
			var total uint64
			for _, c := range cells {
				total += c.value
			}
			if total != uint64(len(items)) {
				t.Fatalf("fifo=%v run %d: %d increments, want %d", fifo, run, total, len(items))
			}
		}
	}
	es := stateFor[int](eng)
	if es.lifo == nil || es.fifo == nil {
		t.Fatal("engine retained no worklists after reuse")
	}
}

// TestEngineStateIsPerItemType checks that one engine can serve loops over
// distinct item types, each with its own retained state.
func TestEngineStateIsPerItemType(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	var c1, c2 cell
	opt := optsFor(Deterministic, 2)
	st := RunOn(eng, []int{1, 2, 3}, func(ctx *Ctx[int], i int) {
		ctx.Acquire(&c1.Lockable)
		ctx.OnCommit(func(*Ctx[int]) { c1.value += uint64(i) })
	}, opt)
	if st.Commits != 3 {
		t.Fatalf("int run commits = %d", st.Commits)
	}
	st = RunOn(eng, []string{"a", "bb"}, func(ctx *Ctx[string], s string) {
		ctx.Acquire(&c2.Lockable)
		ctx.OnCommit(func(*Ctx[string]) { c2.value += uint64(len(s)) })
	}, opt)
	if st.Commits != 2 || c2.value != 3 {
		t.Fatalf("string run commits = %d value = %d", st.Commits, c2.value)
	}
	if stateFor[int](eng) == nil || stateFor[string](eng) == nil {
		t.Fatal("missing per-type state")
	}
	if len(eng.states) != 2 {
		t.Fatalf("engine holds %d typed states, want 2", len(eng.states))
	}
}

// TestEngineSteadyStateAllocs is the allocation-free-steady-state claim of
// the engine refactor, at core level: once warm, a deterministic run of
// read-only tasks on a reused engine performs (near) zero heap allocations.
// The bound is deliberately a small constant — the residue is the worker
// dispatch closure and collector snapshot plumbing, not per-task state.
func TestEngineSteadyStateAllocs(t *testing.T) {
	var c cell
	items := make([]int, 512)
	for _, cont := range []bool{true, false} {
		opt := optsFor(Deterministic, 2, func(o *Options) { o.Continuation = cont })
		eng := NewEngine(2)
		opt.Engine = eng
		run := func() {
			ForEach(items, func(ctx *Ctx[int], i int) {
				ctx.Acquire(&c.Lockable)
			}, opt)
		}
		run() // warm: arenas, ctxs, barrier, pool workers
		run()
		allocs := testing.AllocsPerRun(10, run)
		eng.Close()
		// A fresh run allocates hundreds of objects (tasks, contexts,
		// worklist chunks); steady state measures 3 and must stay a small
		// constant.
		if allocs > 8 {
			t.Errorf("cont=%v: steady-state allocs/run = %.0f, want <= 8", cont, allocs)
		}
	}
}

// TestEngineSteadyStateAllocsParallelGather is the same claim for the
// parallel round pipeline: a window large enough to stay above the serial
// batching bound (w > serialSpan×nthreads) runs static-range phases with
// gather fused into execute, and must reuse the collector's per-worker
// lanes, not allocate them per round.
func TestEngineSteadyStateAllocsParallelGather(t *testing.T) {
	// Disjoint tasks keep every round at the full window (all commit, no
	// shrinking), so each round of each run exercises the parallel pipeline.
	cells := make([]cell, 2048)
	items := make([]int, len(cells))
	for i := range items {
		items[i] = i
	}
	opt := optsFor(Deterministic, 2, func(o *Options) { o.WindowInit = 2048 })
	eng := NewEngine(2)
	defer eng.Close()
	opt.Engine = eng
	run := func() {
		ForEach(items, func(ctx *Ctx[int], i int) {
			ctx.Acquire(&cells[i].Lockable)
		}, opt)
	}
	run()
	run()
	allocs := testing.AllocsPerRun(10, run)
	if allocs > 8 {
		t.Errorf("steady-state allocs/run with parallel gather = %.0f, want <= 8", allocs)
	}
}

// TestEngineMisusePanics pins the engine's guard rails: running on a closed
// engine and starting a second run while one is in flight both panic.
func TestEngineMisusePanics(t *testing.T) {
	eng := NewEngine(1)
	eng.Close()
	eng.Close() // idempotent
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for run on closed engine")
			}
		}()
		RunOn(eng, []int{1}, func(*Ctx[int], int) {}, optsFor(Deterministic, 1))
	}()

	eng2 := NewEngine(1)
	defer eng2.Close()
	eng2.running.Store(true) // simulate an in-flight run
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for concurrent runs on one engine")
			}
		}()
		RunOn(eng2, []int{1}, func(*Ctx[int], int) {}, optsFor(Deterministic, 1))
	}()
	eng2.running.Store(false)
}

// TestEngineConcurrentRunPanics drives the guard with a genuinely in-flight
// run — the first RunOn blocks inside a task body while a second goroutine
// calls RunOn on the same engine — pinning the contract the serving layer's
// engine pool relies on: sharing one engine across concurrent jobs fails
// loudly at the second call, it does not corrupt retained run state.
func TestEngineConcurrentRunPanics(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()

	inBody := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	second := make(chan any, 1)
	//detlint:ignore goroutineorder test choreography: channels order body-entry, second call and release explicitly
	go func() {
		defer close(firstDone)
		RunOn(eng, []int{1}, func(*Ctx[int], int) {
			inBody <- struct{}{}
			<-release
		}, optsFor(Deterministic, 1))
	}()
	<-inBody // first run is mid-task, engine in use
	//detlint:ignore goroutineorder test choreography: the recovered panic is the only cross-goroutine result, delivered on a buffered channel
	go func() {
		defer func() { second <- recover() }()
		RunOn(eng, []int{2}, func(*Ctx[int], int) {}, optsFor(Deterministic, 1))
		second <- nil
	}()
	if got := <-second; got == nil {
		t.Fatal("second RunOn on a busy engine did not panic")
	}
	close(release) // let the first run finish cleanly
	<-firstDone

	// The engine is still usable after the rejected call: the guard
	// protected the in-flight run rather than poisoning the engine.
	st := RunOn(eng, []int{1, 2, 3}, func(*Ctx[int], int) {}, optsFor(Deterministic, 1))
	if st.Commits != 3 {
		t.Fatalf("engine unusable after guarded rejection: %+v", st)
	}
}

// TestDetRunSeversCtxScratchAliases pins the fix for a det→nondet engine
// reuse race. inspectTask swaps task-owned scratch through the contexts, so
// without severing, each ctx would leave a deterministic run still aliasing
// the last task buffer it touched — memory in the generation arena that
// later runs hand to *other* workers (a retried task migrates between
// workers). The nondeterministic scheduler treats leftover ctx scratch as
// private ([:0] + append), so a surviving alias lets two workers grow one
// backing array concurrently. The white-box check asserts every det run
// leaves no alias behind; the alternating det/nondet reuse below is the
// integration surface the race detector watches.
func TestDetRunSeversCtxScratchAliases(t *testing.T) {
	const threads = 4
	eng := NewEngine(threads)
	defer eng.Close()
	detOpt := optsFor(Deterministic, threads, func(o *Options) { o.Engine = eng })
	nonOpt := optsFor(NonDeterministic, threads, func(o *Options) { o.Engine = eng })
	for run := 0; run < 3; run++ {
		conflictRun(t, detOpt)
		st := stateFor[int](eng)
		for i, ctx := range st.ctxs {
			if ctx.children != nil {
				t.Fatalf("run %d: ctx %d still aliases task scratch (children cap %d)",
					run, i, cap(ctx.children))
			}
		}
		conflictRun(t, nonOpt)
	}
}

// TestEngineBarrierFollowsGOMAXPROCS flips GOMAXPROCS between runs on one
// engine. The engine's retained barrier samples its oversubscription verdict
// at checkout (para.Barrier.Resample), so the run on one processor parks
// every waiter at once — exactly one park per crossing at two threads, the
// count DESIGN §9.3's guarantee implies — and the run after the flip back
// spins again. Output and the canonical event sequence never notice, with
// the barrier's counters published (a registry attached) or not.
func TestEngineBarrierFollowsGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs: on one, a 2-party barrier is always oversubscribed")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	eng := NewEngine(2)
	defer eng.Close()
	reg := obs.NewRegistry(2)
	crossings, parks := reg.Counter("round.barriers"), reg.Counter("galois_barrier_parks_total")
	run := func(metrics *obs.Registry) (fp uint64, lines []string, crossed, parked uint64) {
		c0, p0 := crossings.Value(), parks.Value()
		fp, lines = tracedOrderSensitive(t, 6000, optsFor(Deterministic, 2, func(o *Options) {
			o.Engine, o.Metrics = eng, metrics
		}))
		return fp, lines, crossings.Value() - c0, parks.Value() - p0
	}
	wantFP, wantLines, _, _ := run(nil) // counters unpublished
	check := func(procs int, fp uint64, lines []string) {
		t.Helper()
		if fp != wantFP || !slices.Equal(lines, wantLines) {
			t.Fatalf("GOMAXPROCS=%d: fingerprint %#x (want %#x) or canonical sequence moved", procs, fp, wantFP)
		}
	}

	runtime.GOMAXPROCS(1)
	fp, lines, crossed, parked := run(reg)
	check(1, fp, lines)
	if crossed < 50 {
		t.Fatalf("only %d crossings: the workload no longer exercises the barrier", crossed)
	}
	if parked != crossed {
		t.Errorf("GOMAXPROCS=1: %d parks over %d crossings, want one per crossing", parked, crossed)
	}

	runtime.GOMAXPROCS(2)
	fp, lines, crossed, parked = run(reg)
	check(2, fp, lines)
	if parked >= crossed {
		t.Errorf("GOMAXPROCS back to 2: %d parks over %d crossings, the barrier still parks every waiter", parked, crossed)
	}
}
